(* The PVR benchmark: one workload per process.

   [churn] and [quiet] build their world with {!Pvr_serve.Workload} and
   drive {!Pvr_engine.Engine} epochs in this process, the code path
   `pvr engine` runs.  [serve] forks `pvr serve` and drives it with two
   closed-loop {!Pvr_serve.Client} connections.  Every input comes from
   --seed.  The last line of stdout is the result object; README.md
   defines each metric and the operation behind it. *)

module W = Pvr_serve.Workload
module E = Pvr_engine.Engine
module P = Pvr_serve.Protocol
module Client = Pvr_serve.Client
module Obs = Pvr_obs

let now = Unix.gettimeofday

(* ---- statistics ---------------------------------------------------------- *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms s = s *. 1000.0

(* ---- peak resident set --------------------------------------------------- *)

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

(* ---- host speed ---------------------------------------------------------- *)

(* This host's speed drifts by up to 2x in regimes lasting seconds to
   minutes, and a whole run can sit in one regime.  A pure ALU loop and a
   DRAM pointer chase barely see it; code that works in the caches with
   short-lived allocation, as the verifier does, does.  So every time the
   benchmark reports end to end is scaled to a reference speed: it is
   multiplied by [host_ref] over the time of [host_unit], a fixed piece of
   such work independent of the program, measured just before.  On the
   reference host the scaled times track the raw ones in fast stretches
   (README.md, "Host speed"). *)

let unit_buf = Bytes.make 8192 'a'
let unit_tab = Array.make 4096 (-1)
let unit_limbs = Array.init 64 (fun i -> (i * 2654435761) land 0xFFFFFFF)
let unit_prod = Array.make 128 0

let unit_strs =
  Array.init 256 (fun i -> String.make (8 + (i mod 24)) (Char.chr (65 + (i mod 26))))

let host_unit () =
  (* word mixing over a buffer, as a hash compression function does *)
  let h = ref 0x6a09e667 in
  for i = 0 to (Bytes.length unit_buf / 4) - 1 do
    let w = Int32.to_int (Bytes.get_int32_le unit_buf (i * 4)) land 0xFFFFFFFF in
    h := ((!h lsl 5) lor (!h lsr 27)) land 0xFFFFFFFF;
    h := (!h + w) lxor (w lsr 3);
    Bytes.set_int32_le unit_buf (i * 4) (Int32.of_int (!h land 0x7FFFFFFF))
  done;
  (* schoolbook limb products, as bignum arithmetic does *)
  Array.fill unit_prod 0 128 0;
  for i = 0 to 63 do
    let c = ref 0 in
    for j = 0 to 63 do
      let t = unit_prod.(i + j) + (unit_limbs.(i) * unit_limbs.(j)) + !c in
      unit_prod.(i + j) <- t land 0xFFFFFFF;
      c := t lsr 28
    done;
    unit_prod.(i + 64) <- !c
  done;
  (* open-addressing inserts, then string-keyed table inserts *)
  Array.fill unit_tab 0 4096 (-1);
  let found = ref 0 in
  for k = 0 to 2047 do
    let key = ((k * 40503) + !h) land 0xFFFFFF in
    let rec ins s =
      if unit_tab.(s) < 0 then unit_tab.(s) <- key
      else if unit_tab.(s) = key then incr found
      else ins ((s + 1) land 4095)
    in
    ins (Hashtbl.hash key land 4095)
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to 511 do
    Hashtbl.replace tbl (string_of_int (i * 7919)) i
  done;
  (* short-lived allocation and a digest *)
  let acc = ref (Hashtbl.length tbl) in
  Array.iter (fun s -> acc := !acc + Hashtbl.hash s + String.length (s ^ "x")) unit_strs;
  let l = List.init 1000 (fun i -> (i, !acc)) in
  ignore (Sys.opaque_identity (Digest.bytes unit_buf));
  List.fold_left (fun a (x, y) -> a + x + y) (!found + unit_prod.(64)) l

(* Seconds [host_unit] takes in a fast stretch of the reference host. *)
let host_ref = 0.0003

(* The factor that scales a time measured now to the reference speed:
   [host_ref] over the median of [k] timed units. *)
let host_scale k =
  let t () =
    let t0 = now () in
    ignore (Sys.opaque_identity (host_unit ()));
    now () -. t0
  in
  host_ref /. median (List.init k (fun _ -> t ()))

(* ---- result -------------------------------------------------------------- *)

type result = {
  violations : string list;  (** output checks that failed *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let print_result r =
  List.iter (fun v -> Printf.eprintf "CHECK FAILED: %s\n" v) r.violations;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (r.violations = []) r.attempted r.failed
    (String.concat ", " metrics)

(* A run is a number of identical rounds, each a fresh set-up followed by
   the same measured work.  Latency and throughput pool every round's
   samples, at the reference host speed; [setup_s] is the median round's.
   [serve] and [churn] run this many; [quiet], whose epochs are short and
   all alike, runs one more, shorter ones. *)
let rounds = 3

(* Highest of p75, p90, p95 and p99 with at least ten of [n] samples
   above it. *)
let tail_pct n =
  List.fold_left
    (fun acc p ->
      if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else acc)
    50.0 [ 75.0; 90.0; 95.0; 99.0 ]

let best_max = List.fold_left Float.max 0.0

(* Per-layer metrics a workload does not exercise read 0, so that every
   traced run prints the full per-layer list. *)
let serve_layer_names =
  [
    ("serve.open_ms", "ms");
    ("serve.first_verdict_ms", "ms");
    ("serve.verdict_gap_ms", "ms");
    ("serve.close_ms", "ms");
    ("serve.queue_depth_peak", "count");
    ("serve.pool_busy_share", "ratio");
  ]

(* Counters read from a pvr_obs snapshot, per epoch and per round. *)
let counter_layers ~epochs ~get =
  let per_epoch c = ratio (get c) epochs in
  let engine_rounds = get "engine.rounds" in
  let hit_ratio h m = ratio (get h) (get h +. get m) in
  [
    ("engine.sign_cache_hit_ratio",
      hit_ratio "engine.cache.sign.hits" "engine.cache.sign.misses", "ratio");
    ("core.rounds", per_epoch "engine.rounds", "count");
    ("core.hashes_per_round",
      ratio (get "crypto.sha256.ops") engine_rounds, "count");
    ("core.commit_bytes_per_round",
      ratio (get "wire.commit.bytes") engine_rounds, "B");
    ("crypto.rsa_sign_ops", per_epoch "crypto.rsa.sign.ops", "count");
    ("crypto.rsa_verify_ops", per_epoch "crypto.rsa.verify.ops", "count");
    ("crypto.sha256_ops", per_epoch "crypto.sha256.ops", "count");
    ("crypto.sha256_mb", per_epoch "crypto.sha256.bytes" /. 1e6, "MB");
    ("crypto.commit_cache_hit_ratio",
      hit_ratio "crypto.commitment.cache.hits" "crypto.commitment.cache.misses",
      "ratio");
  ]

(* ---- engine epochs, timed phase by phase --------------------------------- *)

(* One epoch's figures; reports themselves are not kept, so a long run
   holds no more heap than the engine does. *)
type ep = {
  dt : float;  (** whole [Engine.epoch] call *)
  scaled : float;  (** [dt] at the reference host speed *)
  converge : float;  (** call start to "apply": churn plus BGP convergence *)
  collect : float;  (** "apply" to "collect" *)
  verify : float;  (** "collect" to "verify" *)
  report : float;  (** "verify" to return *)
  words : float;  (** words allocated *)
  changes : int;
  msgs : int;
  vertices : int;
  dirty : int;
  convicted : int;
}

(* Phase clock fed by [on_phase]; [finish] turns it into an [ep]. *)
let phase_clock () =
  let t_apply = ref 0.0 and t_collect = ref 0.0 and t_verify = ref 0.0 in
  let on_phase = function
    | "apply" -> t_apply := now ()
    | "collect" -> t_collect := now ()
    | "verify" -> t_verify := now ()
    | _ -> ()
  in
  let finish ~scale ~t0 ~t1 ~words (r : E.epoch_report) =
    {
      dt = t1 -. t0;
      scaled = (t1 -. t0) *. scale;
      converge = !t_apply -. t0;
      collect = !t_collect -. !t_apply;
      verify = !t_verify -. !t_collect;
      report = t1 -. !t_verify;
      words;
      changes = r.ep_changes;
      msgs = r.ep_msgs;
      vertices = r.ep_vertices;
      dirty = r.ep_dirty;
      convicted = r.ep_convicted;
    }
  in
  (on_phase, finish)

let phase_layers eps =
  let m f = mean (List.map f eps) in
  let total f = float_of_int (List.fold_left (fun a e -> a + f e) 0 eps) in
  [
    ("bgp.converge_ms", ms (m (fun e -> e.converge)), "ms");
    ("bgp.msgs", m (fun e -> float_of_int e.msgs), "count");
    ("engine.collect_ms", ms (m (fun e -> e.collect)), "ms");
    ("engine.verify_ms", ms (m (fun e -> e.verify)), "ms");
    ("engine.report_ms", ms (m (fun e -> e.report)), "ms");
    ("engine.dirty", m (fun e -> float_of_int e.dirty), "count");
    ("engine.dirty_per_update",
      ratio (total (fun e -> e.dirty)) (total (fun e -> e.changes)), "ratio");
    ("engine.alloc_mwords", m (fun e -> e.words) /. 1e6, "Mwords");
    ("core.convicted", m (fun e -> float_of_int e.convicted), "count");
  ]

(* ---- churn and quiet ----------------------------------------------------- *)

(* One fixed generated internet and one fixed churn trace on it, replayed
   by every seed, as a recorded update trace would be; --seed varies keys,
   salts and the adversary's choice of vertices.  A seeded trace moved the
   median epoch by up to 1.9x between seeds, since whether an epoch's
   flips revisit routes already verified in the salt period decides
   whether it costs 8 ms or 300 ms. *)
let gen_seed = 2011
let churn_seed = 2011

let churn_params seed =
  {
    W.defaults with
    p_seed = seed;
    p_ases = 60;
    p_gen_seed = Some gen_seed;
    p_origins = 8;
    p_ppo = 2;
    p_anycast = 2;
    p_turnover = 0.2;
    p_salt_every = 8;
    p_jobs = 1;
    p_strategy =
      Option.get (Pvr.Adversary.strategy_of_string "cross-shard-equivocate");
  }

let quiet_params seed =
  {
    W.defaults with
    p_seed = seed;
    p_ases = 60;
    p_gen_seed = Some gen_seed;
    p_origins = 8;
    p_ppo = 2;
    p_anycast = 2;
    p_turnover = 0.0;
    p_salt_every = 1_000_000;
    p_jobs = 1;
  }

type engine_spec = {
  params : W.params;
  rounds : int;
  rate : float;
      (** nominal steady epochs per second: a round measures
          [seconds * rate / rounds] epochs *)
  units : ep -> int;  (** throughput units one epoch completes *)
  quiet_checks : bool;
}

(* Properties every epoch must have, whatever the seed. *)
let epoch_violations spec ~first_lines (r : E.epoch_report) =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  if r.ep_vertices <> r.ep_dirty + r.ep_skipped then
    add "epoch %d: vertices %d <> dirty %d + skipped %d" r.ep_epoch
      r.ep_vertices r.ep_dirty r.ep_skipped;
  List.iter
    (fun (o : E.outcome) ->
      let cheat = o.vx_behaviour <> Pvr.Adversary.Honest in
      if cheat && not o.vx_convicted then
        add "epoch %d: planned cheat not convicted: %s" r.ep_epoch o.vx_line;
      if (not cheat) && o.vx_convicted then
        add "epoch %d: honest vertex convicted: %s" r.ep_epoch o.vx_line)
    r.ep_outcomes;
  if spec.quiet_checks && r.ep_epoch > 1 then begin
    if
      r.ep_dirty <> 0
      || List.exists (fun (o : E.outcome) -> o.vx_recomputed) r.ep_outcomes
    then
      add "epoch %d: %d vertices recomputed on a quiet epoch" r.ep_epoch
        r.ep_dirty;
    if List.map (fun (o : E.outcome) -> o.vx_line) r.ep_outcomes <> first_lines
    then
      add "epoch %d: outcome lines differ from epoch 1" r.ep_epoch
  end;
  List.rev !v

type live = {
  eng : E.t;
  apply : epoch:int -> Pvr_bgp.Simulator.t -> int;
  first : E.epoch_report;
}

(* World build, then the first (full-table) epoch: the set-up an operator
   pays before steady state.  Mirrors [Workload.engine_core] without a
   checkpoint store, except that churn steps draw from the fixed trace
   stream. *)
let engine_setup (p : W.params) =
  let t0 = now () in
  let w = W.build_world ~quiet:true p in
  let t1 = now () in
  let sim = Pvr_bgp.Simulator.create w.w_topo in
  Pvr_bgp.Simulator.set_log_enabled sim false;
  let eng =
    E.create ~jobs:p.p_jobs ~shards:p.p_shards ~cache:p.p_cache
      ~salt_every:p.p_salt_every ~strategy:p.p_strategy w.w_engine_rng
      w.w_keyring ~topology:w.w_topo ~sim ()
  in
  let trace_rng = Pvr_crypto.Drbg.of_int_seed churn_seed in
  let apply ~epoch sim =
    if epoch = 1 then List.length (Pvr_bgp.Update_gen.Churn.seed w.w_churn sim)
    else
      List.length
        (Pvr_bgp.Update_gen.Churn.step trace_rng ~turnover:p.p_turnover
           w.w_churn sim)
  in
  let first = E.epoch ~apply:(apply ~epoch:1) eng in
  let t2 = now () in
  ({ eng; apply; first }, t1 -. t0, t2 -. t1)

type engine_round = {
  world_s : float;
  first_s : float;
  setup_scaled : float;  (** [world_s +. first_s] at the reference speed *)
  plain : (int * ep) list;  (** (epoch index in the round, figures) *)
  traced : (int * ep) list;
}

let run_engine spec ~seconds ~trace ~seed =
  let rounds = spec.rounds in
  let per_round =
    max 1 (int_of_float (seconds *. spec.rate /. float_of_int rounds))
  in
  let violations = ref [] in
  if trace then Obs.reset_all ();
  (* The traced run turns Pvr_obs on for a seeded half of the epochs (a
     coin, not parity, which would line up with salt rotation), and for
     the other half in the next round.  Rounds replay the same epochs, so
     each epoch of the first two rounds is timed once traced and once
     not. *)
  let round k =
    Gc.full_major ();
    let coin = Random.State.make [| seed |] in
    let s0 = host_scale 9 in
    let live, world_s, first_s = engine_setup spec.params in
    let setup_scaled = (world_s +. first_s) *. mean [ s0; host_scale 9 ] in
    let first_lines =
      List.map (fun (o : E.outcome) -> o.vx_line) live.first.ep_outcomes
    in
    violations := !violations @ epoch_violations spec ~first_lines live.first;
    let plain = ref [] and traced = ref [] in
    let scale_before = ref (host_scale 5) in
    for i = 1 to per_round do
      let tr = trace && Random.State.bool coin <> (k mod 2 = 1) in
      let epoch = E.current_epoch live.eng + 1 in
      let on_phase, finish = phase_clock () in
      if tr then Obs.set_enabled true;
      let a0 = Gc.allocated_bytes () in
      let t0 = now () in
      let r = E.epoch ~apply:(live.apply ~epoch) ~on_phase live.eng in
      let t1 = now () in
      let words = (Gc.allocated_bytes () -. a0) /. 8.0 in
      Obs.set_enabled false;
      let scale_after = host_scale 5 in
      let scale = mean [ !scale_before; scale_after ] in
      scale_before := scale_after;
      let e = finish ~scale ~t0 ~t1 ~words r in
      if tr then traced := (i, e) :: !traced else plain := (i, e) :: !plain;
      violations := !violations @ epoch_violations spec ~first_lines r
    done;
    {
      world_s;
      first_s;
      setup_scaled;
      plain = List.rev !plain;
      traced = List.rev !traced;
    }
  in
  let rs = List.init rounds round in
  let plain = List.concat_map (fun r -> List.map snd r.plain) rs in
  let traced = List.concat_map (fun r -> r.traced) rs in
  let scaled = List.map (fun e -> e.scaled) plain in
  let setup_s = median (List.map (fun r -> r.setup_scaled) rs) in
  let p50 = ms (median scaled) in
  Printf.eprintf
    "%d rounds of %d epochs, p50 %.1f ms (raw %.1f ms), setup %.2f s (raw \
     %.2f s)\n%!"
    rounds per_round p50
    (ms (median (List.map (fun e -> e.dt) plain)))
    setup_s
    (median (List.map (fun r -> r.world_s +. r.first_s) rs));
  let metrics =
    if not trace then
      let units = List.fold_left (fun a e -> a + spec.units e) 0 plain in
      [
        ("setup_s", setup_s, "s");
        ("latency_ms_p50", p50, "ms");
        ( "latency_ms_tail",
          ms (percentile (tail_pct (List.length scaled)) scaled),
          "ms" );
        ("throughput_per_s", ratio (float_of_int units) (sum scaled), "1/s");
        ("peak_rss_mb", peak_rss_mb "self", "MB");
      ]
    else
      let snap = Obs.Snapshot.capture () in
      let get c = float_of_int (Obs.Snapshot.counter_value snap c) in
      (* Median over epochs of traced time over untraced time of the same
         epoch, from the first two rounds. *)
      let overhead =
        match rs with
        | r0 :: r1 :: _ ->
            let pair (i, (e : ep)) =
              match
                List.assoc_opt i r0.plain, List.assoc_opt i r1.plain
              with
              | Some u, _ | None, Some u -> Some (e.dt /. u.dt)
              | None, None -> None
            in
            100.0
            *. (median (List.filter_map pair (r0.traced @ r1.traced)) -. 1.0)
        | _ -> 0.0
      in
      [
        ("setup.world_s", median (List.map (fun r -> r.world_s) rs), "s");
        ("setup.first_epoch_s", median (List.map (fun r -> r.first_s) rs), "s");
      ]
      @ phase_layers plain
      @ counter_layers ~epochs:(float_of_int (List.length traced)) ~get
      @ List.map (fun (n, u) -> (n, 0.0, u)) serve_layer_names
      @ [ ("obs.trace_overhead_pct", overhead, "%") ]
  in
  {
    violations = !violations;
    attempted = rounds * per_round;
    failed = 0;
    metrics;
  }

(* ---- serve --------------------------------------------------------------- *)

let session_epochs = 16

(* Session seeds per run.  Session cost varies with the seed's hierarchy
   (each AS draws one or two providers), so a run averages over this
   many. *)
let distinct_sessions = 16

let session_params seed =
  {
    W.defaults with
    p_seed = seed;
    p_tiers = "1,2,4";
    p_epochs = session_epochs;
  }

(* The wire protocol carries a session's seed as a u32, so session seeds
   are drawn from --seed as distinct 30-bit numbers: any --seed, however
   large, gives sessions the daemon can be sent. *)
let session_seeds seed =
  let rng = Random.State.make [| seed |] in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let s = Random.State.bits rng in
      if List.mem s acc then draw acc k else draw (s :: acc) (k - 1)
  in
  draw [] distinct_sessions

(* The re-run probe's session.  Its parameters do not depend on --seed:
   a second [Run_epochs] on one session must reproduce the batch digest
   whatever the inputs. *)
let probe_params = { (session_params 1_000_003) with p_epochs = 4 }

(* What a batch [Workload] run of the same parameters produces: the
   per-epoch digest chain a session must stream. *)
type reference = { chain : string array; final : string; eps : ep list }

let batch_reference (p : W.params) =
  let w = W.build_world ~quiet:true p in
  let chain = ref [] and eps = ref [] in
  let clock = ref (phase_clock ()) in
  let t0 = ref (now ()) and a0 = ref (Gc.allocated_bytes ()) in
  let on_report (r : E.epoch_report) =
    let t1 = now () in
    let words = (Gc.allocated_bytes () -. !a0) /. 8.0 in
    (* Epoch 1 also pays engine creation; steady epochs only. *)
    if r.ep_epoch > 1 then
      eps := (snd !clock) ~scale:1.0 ~t0:!t0 ~t1 ~words r :: !eps;
    chain := r.ep_digest :: !chain;
    clock := phase_clock ();
    t0 := now ();
    a0 := Gc.allocated_bytes ()
  in
  let on_phase ~epoch:_ ph = (fst !clock) ph in
  match W.engine_core ~quiet:true ~on_phase ~on_report w p with
  | Error e -> failwith ("batch reference: " ^ e)
  | Ok (final, _) ->
      { chain = Array.of_list (List.rev !chain); final; eps = List.rev !eps }

(* Daemons alive in this process, stopped at exit whatever happens. *)
let live_daemons = ref []

type daemon = { pid : int; out : in_channel }

let spawn_daemon ~pvr ~sock ~traced =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ pvr; "serve"; "--socket"; sock; "--workers"; "2"; "--queue-cap"; "4" ]
    @ if traced then [ "--stats" ] else []
  in
  let pid =
    Unix.create_process pvr (Array.of_list args) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live_daemons := (pid, sock) :: !live_daemons;
  let out = Unix.in_channel_of_descr r in
  (* The daemon prints this line once its socket is listening, so
     connecting needs no polling. *)
  (match In_channel.input_line out with
  | Some l when String.starts_with ~prefix:"pvr serve: listening" l -> ()
  | _ -> failwith "pvr serve did not start");
  { pid; out }

(* SIGTERM drains the daemon; returns what it printed after start-up (its
   --stats snapshot, when traced). *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let rest = In_channel.input_all d.out in
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  live_daemons := List.filter (fun (p, _) -> p <> d.pid) !live_daemons;
  close_in d.out;
  rest

(* SIGTERM or SIGINT ends the run through [exit], so the handler below
   still stops every daemon. *)
let () =
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      List.iter
        (fun (pid, sock) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
           with Unix.Unix_error _ -> ());
          try Sys.remove sock with Sys_error _ -> ())
        !live_daemons)

(* One client's record.  Each client thread owns its own. *)
type tally = {
  mutable lat : float list;  (** Open_session sent to Done received *)
  mutable busy : float;  (** summed session latency *)
  mutable verdicts : int;
  mutable opens : float list;
  mutable firsts : float list;
  mutable gaps : float list;
  mutable closes : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable bad : string list;
}

let new_tally () =
  {
    lat = [];
    busy = 0.0;
    verdicts = 0;
    opens = [];
    firsts = [];
    gaps = [];
    closes = [];
    attempted = 0;
    failed = 0;
    bad = [];
  }

let violation t fmt = Printf.ksprintf (fun s -> t.bad <- s :: t.bad) fmt

(* Stream one Run_epochs and check it against the batch chain.  Returns
   the terminal digest, or [None] after recording why. *)
let run_checked t cl id (p : W.params) refr ~first ~gap =
  let n = ref 0 and ok = ref true in
  let t_prev = ref (now ()) in
  let on_verdict (v : P.verdict) =
    let tv = now () in
    if !n = 0 then first (tv -. !t_prev) else gap (tv -. !t_prev);
    t_prev := tv;
    incr n;
    if v.v_epoch <> !n || !n > Array.length refr.chain then ok := false
    else if v.v_digest <> refr.chain.(!n - 1) then ok := false
  in
  match Client.run_epochs ~on_verdict cl id with
  | Error e ->
      violation t "seed %d: Run_epochs answered %s" p.p_seed e;
      None
  | Ok (digest, _) ->
      if !n <> p.p_epochs then
        violation t "seed %d: %d verdicts streamed, %d expected" p.p_seed !n
          p.p_epochs;
      if not !ok then
        violation t "seed %d: verdicts out of order or off the batch chain"
          p.p_seed;
      Some digest

let open_checked t cl (p : W.params) =
  match Client.open_session cl p with
  | Ok id -> Some id
  | Error e ->
      violation t "seed %d: Open_session answered %s" p.p_seed e;
      None

let close_checked t cl id =
  match Client.close_session cl id with
  | Ok () -> ()
  | Error e -> violation t "Close_session answered %s" e

(* One session: open, stream every epoch, close. *)
let session t cl (p, refr) =
  let t0 = now () in
  match open_checked t cl p with
  | None -> ()
  | Some id ->
      let t_open = now () in
      let firsts = ref [] and gaps = ref [] in
      let d =
        run_checked t cl id p refr
          ~first:(fun x -> firsts := x :: !firsts)
          ~gap:(fun x -> gaps := x :: !gaps)
      in
      let t_done = now () in
      close_checked t cl id;
      let t_close = now () in
      (match d with
      | Some d when d <> refr.final ->
          violation t "seed %d: Done digest differs from the batch digest"
            p.p_seed
      | _ -> ());
      t.attempted <- t.attempted + 1;
      t.lat <- (t_done -. t0) :: t.lat;
      t.busy <- t.busy +. (t_done -. t0);
      t.verdicts <- t.verdicts + p.p_epochs;
      t.opens <- (t_open -. t0) :: t.opens;
      t.firsts <- !firsts @ t.firsts;
      t.gaps <- !gaps @ t.gaps;
      t.closes <- (t_close -. t_done) :: t.closes

(* The re-run probe: a session run twice.  The first run is checked like
   any session; the second is one operation, failed when its digest is
   not the batch digest.  Neither run is a latency or throughput
   sample. *)
let probe t cl (p, refr) =
  let skip _ = () in
  match open_checked t cl p with
  | None -> ()
  | Some id ->
      (match run_checked t cl id p refr ~first:skip ~gap:skip with
      | Some d when d <> refr.final ->
          violation t "probe: first run's digest differs from the batch digest"
      | _ -> ());
      let again =
        match Client.run_epochs cl id with
        | Ok (d, _) -> d = refr.final
        | Error e ->
            if e = "busy" then violation t "probe: re-run answered busy";
            false
      in
      close_checked t cl id;
      t.attempted <- t.attempted + 1;
      if not again then t.failed <- t.failed + 1

(* Run [f] in [n] threads, one client connection each, and join them. *)
let with_clients sock n f =
  let tallies = List.init n (fun _ -> new_tally ()) in
  let threads =
    List.mapi
      (fun i t ->
        Thread.create
          (fun () ->
            try
              let cl = Client.connect (Pvr_serve.Server.Unix_sock sock) in
              Fun.protect
                ~finally:(fun () -> Client.close cl)
                (fun () -> f i t cl)
            with e -> violation t "client %d: %s" i (Printexc.to_string e))
          ())
      tallies
  in
  List.iter Thread.join threads;
  tallies

let clients = 2

(* Nominal windows per second: a daemon round runs
   [seconds * serve_rate / rounds] windows. *)
let serve_rate = 0.5

(* Closed loop in lock step: in each step every client runs one session,
   on its own connection, and the step ends when all have.  A window is
   as many steps as it takes the clients to run every distinct session
   once, then one step in which each runs a probe.  Between steps the
   daemon is idle and the host's speed is measured; a step's times are
   scaled by the mean of the measurements either side of it.  Returns
   each step's scale and its clients' tallies, in client order. *)
let measure_serve sock ~refs ~probe_ref ~windows =
  let conns =
    List.init clients (fun _ -> Client.connect (Pvr_serve.Server.Unix_sock sock))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close conns)
    (fun () ->
      let scale = ref (host_scale 9) in
      let step f =
        let tallies = List.map (fun _ -> new_tally ()) conns in
        List.combine tallies conns
        |> List.mapi (fun i (t, cl) ->
               Thread.create
                 (fun () ->
                   try f i t cl
                   with e -> violation t "client %d: %s" i (Printexc.to_string e))
                 ())
        |> List.iter Thread.join;
        let before = !scale in
        scale := host_scale 9;
        (mean [ before; !scale ], tallies)
      in
      let share i = List.filteri (fun j _ -> j mod clients = i) refs in
      let shares = Array.init clients share in
      List.concat
        (List.init windows (fun _ ->
             List.init (List.length shares.(0)) (fun k ->
                 step (fun i t cl -> session t cl (List.nth shares.(i) k)))
             @ [ step (fun _ t cl -> probe t cl probe_ref) ])))

(* Daemon spawn until it answers Ping, then one session per distinct seed. *)
let serve_setup ~pvr ~sock ~refs ~traced =
  let s0 = host_scale 9 in
  let t0 = now () in
  let d = spawn_daemon ~pvr ~sock ~traced in
  let cl = Client.connect (Pvr_serve.Server.Unix_sock sock) in
  let pong = Client.ping cl in
  Client.close cl;
  if not pong then failwith "pvr serve did not answer Ping";
  let t1 = now () in
  let warm =
    with_clients sock clients (fun i t cl ->
        List.iteri (fun j s -> if j mod clients = i then session t cl s) refs)
  in
  let t2 = now () in
  let scale = mean [ s0; host_scale 9 ] in
  (d, t1 -. t0, t2 -. t1, scale, List.concat_map (fun t -> t.bad) warm)


(* Counter [name] in the pvr_obs JSON snapshot `pvr serve --stats` prints
   on exit; 0 when absent, as {!Obs.Snapshot.counter_value} reads it. *)
let snapshot_counter snap name =
  let n = String.length snap in
  let rec find i sub =
    let l = String.length sub in
    if i + l > n then None
    else if String.sub snap i l = sub then Some (i + l)
    else find (i + 1) sub
  in
  match find 0 "\"counters\":{" with
  | None -> 0.0
  | Some c -> (
      match find c (Printf.sprintf "%S:" name) with
      | None -> 0.0
      | Some i ->
          let j = ref i in
          while !j < n && String.contains "0123456789" snap.[!j] do
            incr j
          done;
          float_of_string (String.sub snap i (!j - i)))

(* Stats requests every 20 ms on their own connection, for the traced
   run's queue and pool figures. *)
let start_monitor sock =
  let stop = Atomic.make false and samples = ref [] in
  let th =
    Thread.create
      (fun () ->
        let cl = Client.connect (Pvr_serve.Server.Unix_sock sock) in
        while not (Atomic.get stop) do
          (match Client.stats cl with
          | Ok s -> samples := s :: !samples
          | Error _ -> ());
          Thread.delay 0.02
        done;
        Client.close cl)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    !samples

type serve_round = {
  spawn_s : float;
  warm_s : float;
  setup_scale : float;
  warm_bad : string list;
  stats : P.stats_reply list;  (** Stats polls, traced round only *)
  steps : (float * tally list) list;  (** scale, each client's tally *)
  rss : float;  (** daemon VmHWM *)
  snap : string;  (** daemon --stats snapshot, traced round only *)
}

let run_serve ~pvr ~seconds ~trace ~seed =
  let refs =
    List.map
      (fun s ->
        let p = session_params s in
        (p, batch_reference p))
      (session_seeds seed)
  in
  let probe_ref = (probe_params, batch_reference probe_params) in
  (try Unix.mkdir ".perfbench" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ()) in
  let windows =
    max 1 (int_of_float (seconds *. serve_rate /. float_of_int rounds))
  in
  (* In the traced run the middle daemon runs with --stats; the rounds
     either side of it give the untraced baseline. *)
  let round k =
    let traced = trace && k = 1 in
    let d, spawn_s, warm_s, setup_scale, warm_bad =
      serve_setup ~pvr ~sock ~refs ~traced
    in
    let stop_monitor = if traced then Some (start_monitor sock) else None in
    let steps = measure_serve sock ~refs ~probe_ref ~windows in
    let stats = match stop_monitor with Some f -> f () | None -> [] in
    let rss = peak_rss_mb (string_of_int d.pid) in
    let snap = stop_daemon d in
    { spawn_s; warm_s; setup_scale; steps; warm_bad; stats; rss; snap }
  in
  let rs = List.init rounds round in
  let tallies_of r = List.concat_map snd r.steps in
  let all f r = List.concat_map f (tallies_of r) in
  (* Session latencies at the reference host speed. *)
  let scaled r =
    List.concat_map
      (fun (sc, w) -> List.concat_map (fun t -> List.map (( *. ) sc) t.lat) w)
      r.steps
  in
  let p50 r = ms (median (scaled r)) in
  let tallies = List.concat_map tallies_of rs in
  let setup_s =
    median (List.map (fun r -> (r.spawn_s +. r.warm_s) *. r.setup_scale) rs)
  in
  (* Each client's verdicts per second of its scaled session time,
     summed over the clients. *)
  let throughput =
    List.init clients (fun c ->
        let v = ref 0 and b = ref 0.0 in
        List.iter
          (fun r ->
            List.iter
              (fun (sc, ts) ->
                let t = List.nth ts c in
                v := !v + t.verdicts;
                b := !b +. (t.busy *. sc))
              r.steps)
          rs;
        ratio (float_of_int !v) !b)
    |> sum
  in
  let pooled = List.concat_map scaled rs in
  Printf.eprintf
    "%d sessions, p50 %.1f ms (raw %.1f ms), setup %.2f s (raw %.2f s)\n%!"
    (List.length pooled) (ms (median pooled))
    (ms (median (List.concat_map (all (fun t -> t.lat)) rs)))
    setup_s
    (median (List.map (fun r -> r.spawn_s +. r.warm_s) rs));
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("latency_ms_p50", ms (median pooled), "ms");
        ( "latency_ms_tail",
          ms (percentile (tail_pct (List.length pooled)) pooled),
          "ms" );
        ("throughput_per_s", throughput, "1/s");
        ("peak_rss_mb", best_max (List.map (fun r -> r.rss) rs), "MB");
      ]
    else
      let t = List.nth rs 1 in
      let get = snapshot_counter t.snap in
      let med f = ms (median (all f t)) in
      let busy_share =
        mean
          (List.map
             (fun (s : P.stats_reply) ->
               ratio
                 (float_of_int (s.st_inflight - s.st_queue_depth))
                 (float_of_int s.st_workers))
             t.stats)
      in
      let queue_peak =
        List.fold_left
          (fun a (s : P.stats_reply) -> max a s.st_queue_depth)
          0 t.stats
      in
      let untraced = mean [ p50 (List.nth rs 0); p50 (List.nth rs 2) ] in
      [
        ("setup.world_s", median (List.map (fun r -> r.spawn_s) rs), "s");
        ("setup.first_epoch_s", median (List.map (fun r -> r.warm_s) rs), "s");
      ]
      @ phase_layers (List.concat_map (fun (_, r) -> r.eps) refs)
      @ counter_layers ~epochs:(get "engine.epochs") ~get
      @ [
          ("serve.open_ms", med (fun t -> t.opens), "ms");
          ("serve.first_verdict_ms", med (fun t -> t.firsts), "ms");
          ("serve.verdict_gap_ms", med (fun t -> t.gaps), "ms");
          ("serve.close_ms", med (fun t -> t.closes), "ms");
          ("serve.queue_depth_peak", float_of_int queue_peak, "count");
          ("serve.pool_busy_share", busy_share, "ratio");
          ( "obs.trace_overhead_pct",
            100.0 *. (ratio (p50 t) untraced -. 1.0),
            "%" );
        ]
  in
  {
    violations =
      List.concat_map (fun r -> r.warm_bad) rs
      @ List.concat_map (fun t -> List.rev t.bad) tallies;
    attempted = List.fold_left (fun a t -> a + t.attempted) 0 tallies;
    failed = List.fold_left (fun a t -> a + t.failed) 0 tallies;
    metrics;
  }

(* ---- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and pvr = ref "_build/default/bin/pvr_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "churn|quiet|serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "how long to measure");
      ("--trace", Arg.Set_int trace, "1: print per-layer metrics");
      ("--pvr", Arg.Set_string pvr, "pvr CLI executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pvrbench --workload churn|quiet|serve --seed N --seconds S --trace 0|1";
  let seconds = !seconds and trace = !trace = 1 and seed = !seed in
  let engine params ~rounds ~rate ~units ~quiet_checks =
    run_engine { params; rounds; rate; units; quiet_checks } ~seconds
      ~trace ~seed
  in
  let r =
    match !workload with
    | "churn" ->
        engine (churn_params seed) ~rounds ~rate:6.0
          ~units:(fun e -> e.changes) ~quiet_checks:false
    | "quiet" ->
        engine (quiet_params seed) ~rounds:(rounds + 1) ~rate:80.0
          ~units:(fun e -> e.vertices) ~quiet_checks:true
    | "serve" -> run_serve ~pvr:!pvr ~seconds ~trace ~seed
    | w ->
        Printf.eprintf "pvrbench: unknown workload %S\n" w;
        exit 2
  in
  print_result r
