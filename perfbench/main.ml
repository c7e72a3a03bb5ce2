(* The repository benchmark.

   Three workloads over the public library API.  End-to-end metrics
   come from untraced runs; per-layer metrics come from a separate traced
   run whose spans are recorded here, around the calls into each layer
   (nothing is instrumented inside the libraries).  The
   last line of stdout is the result object run.py hands on; every line
   before it is for people.  README.md is the metric dictionary. *)

module T = Cgra_trace.Trace
module Hist = Cgra_prof.Metrics.Hist
module Pool = Cgra_util.Pool
module Farm = Cgra_farm.Farm
module Farm_fuzz = Cgra_farm.Farm_fuzz
module Binary = Cgra_core.Binary
module Os_sim = Cgra_core.Os_sim
module Engine = Cgra_core.Os_sim.Engine
module Experiments = Cgra_core.Experiments
module Transform = Cgra_core.Transform
module Workload = Cgra_core.Workload
module Thread_model = Cgra_core.Thread_model
module Mapping = Cgra_mapper.Mapping
module Cgra = Cgra_arch.Cgra
module Kernels = Cgra_kernels.Kernels

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Checks and metrics                                                  *)

(* A failed check makes the run incorrect (exit 1).  A failed operation
   of the program under test (a compile error, an invalid fold) is an
   outcome the benchmark measures: it is counted in [failed] and in the
   failure fractions, and reported on stderr. *)
let failures = ref []
let op_failures = ref []

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt

let op_failed fmt = Printf.ksprintf (fun s -> op_failures := s :: !op_failures) fmt

let ok_or_fail what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ e)

(* [declared] metrics go into the final result object (they are the ones
   BENCHMARK.json declares); the others are printed for people only. *)
type metric = { name : string; unit_ : string; value : float; declared : bool }

let metrics = ref []

let metric ?(declared = true) name unit_ value =
  metrics := { name; unit_; value; declared } :: !metrics

let count ?declared name value = metric ?declared name "count" (float_of_int value)

let frac ?declared name value =
  check (value >= 0.0 && value <= 1.0) "%s = %g outside [0, 1]" name value;
  metric ?declared name "ratio" value

let info fmt = Printf.printf (fmt ^^ "\n%!")

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Repeat [f] (which returns the duration it measured) in whole rounds
   of [round] calls, so that every input of a round weighs the same in
   the median: at least one round, and another only while it should end
   within [seconds]. *)
let repeat ~seconds ~round f =
  let t0 = now () in
  let rec go acc n t_round =
    let acc = f n :: acc and n = n + 1 in
    if n mod round <> 0 then go acc n t_round
    else
      let t = now () in
      if t -. t0 +. (t -. t_round) > seconds then List.rev acc else go acc n t
  in
  go [] 0 t0

(* OCaml major-heap high-water mark over a phase: sampled at the end of
   every major cycle and around the phase. *)
let peak_heap_words = ref 0

let sample_heap () =
  let s = Gc.quick_stat () in
  if s.Gc.heap_words > !peak_heap_words then peak_heap_words := s.Gc.heap_words

let watch_heap f =
  peak_heap_words := 0;
  sample_heap ();
  let alarm = Gc.create_alarm sample_heap in
  Fun.protect f ~finally:(fun () ->
      Gc.delete_alarm alarm;
      sample_heap ())

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans                                                *)

(* The span stream of the traced run: [Trace.with_span] events whose
   clock is wall time in microseconds since start-up, so the Chrome
   export is a real timeline.  Under [T.null] a span is a plain call.
   [key] accumulates the span's duration into a per-layer total. *)
let spans = ref T.null
let origin = now ()
let span_totals : (string, float ref) Hashtbl.t = Hashtbl.create 16

let total key =
  match Hashtbl.find_opt span_totals key with Some r -> !r | None -> 0.0

let span_dt ~key name f =
  let tr = !spans in
  if not (T.enabled tr) then (f (), 0.0)
  else begin
    let t0 = now () in
    T.set_clock tr ((t0 -. origin) *. 1e6);
    let r =
      T.with_span tr name (fun () ->
          let r = f () in
          T.set_clock tr ((now () -. origin) *. 1e6);
          r)
    in
    let dt = now () -. t0 in
    (match Hashtbl.find_opt span_totals key with
    | Some acc -> acc := !acc +. dt
    | None -> Hashtbl.add span_totals key (ref dt));
    (r, dt)
  end

let span ~key name f = fst (span_dt ~key name f)

let start_spans () =
  spans := T.make ();
  Hashtbl.reset span_totals

(* ------------------------------------------------------------------ *)
(* Shared layers: mapper and store                                     *)

type config = { size : int; page_pes : int; arch : Cgra.t }

let config_name c = Printf.sprintf "%dx%d-p%d" c.size c.size c.page_pes

let configs_of specs =
  List.filter_map
    (fun (size, page_pes) ->
      Option.map (fun arch -> { size; page_pes; arch })
        (Cgra.standard ~size ~page_pes))
    specs

(* Every (config, kernel) pair, compiled with the memo and store as the
   caller left them.  A traced call gets one span per compile (its time
   also kept in [compile_time], by name) and the mapper's own
   [sched.race.*] counters in [mtrace]. *)
let compile_time : (string, float) Hashtbl.t = Hashtbl.create 128

let compile_all ?pool ?mtrace ~seed configs =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun (k : Kernels.t) ->
          let name = Printf.sprintf "%s-%s" k.name (config_name c) in
          let r, dt =
            span_dt ~key:"mapper.compile" ("mapper.compile " ^ name) (fun () ->
                Binary.compile ~seed ?pool ?trace:mtrace c.arch k)
          in
          Hashtbl.replace compile_time name dt;
          match r with
          | Ok b -> Some (c, k, b)
          | Error e ->
              op_failed "compile %s: %s" name e;
              None)
        Kernels.all)
    configs

let mapper_metrics ~mtrace compiled =
  let counter name =
    List.fold_left
      (fun acc (e : T.event) ->
        match e.payload with
        | T.Counter { name = n; value } when n = name -> acc +. value
        | _ -> acc)
      0.0 (T.events mtrace)
  in
  metric "mapper.compile_s" "s" (total "mapper.compile");
  metric "mapper.compile_ms.sobel-4x4-p4" "ms"
    (1000.0
    *. Option.value ~default:0.0 (Hashtbl.find_opt compile_time "sobel-4x4-p4"));
  count "mapper.compiles" (List.length compiled);
  metric "mapper.candidates" "count" (counter "sched.race.candidates");
  metric "mapper.launched" "count" (counter "sched.race.launched");
  metric "mapper.cancelled" "count" (counter "sched.race.cancelled");
  count "mapper.ii_paged_sum"
    (List.fold_left (fun acc (_, _, b) -> acc + Binary.ii_paged b) 0 compiled)

(* Publish every compiled binary to a fresh store. *)
let store_publish ~seed ~store_dir compiled =
  rm_rf store_dir;
  let st = Cgra_store.open_ store_dir in
  span ~key:"store.publish" "store.publish" (fun () ->
      List.iter (fun (c, k, b) -> Cgra_store.save st ~seed c.arch k b) compiled);
  let sc = Cgra_store.counters st in
  check (sc.Cgra_store.save_failures = 0) "store: %d failed saves"
    sc.Cgra_store.save_failures;
  st

(* Restart warm: drop the memo and load every binary back through
   [Binary]'s disk tier (left installed), with zero scheduler runs. *)
let store_warm_load ~seed st compiled =
  Binary.clear_cache ();
  Binary.reset_stats ();
  Cgra_store.install st;
  let warm =
    span ~key:"store.warm_load" "store.warm_load" (fun () ->
        List.map
          (fun (c, (k : Kernels.t), _) ->
            ok_or_fail ("warm load " ^ k.name) (Binary.compile ~seed c.arch k))
          compiled)
  in
  let s = Binary.stats () in
  check (s.Binary.compiles = 0) "store: warm load ran %d compiles"
    s.Binary.compiles;
  List.iter2
    (fun (_, (k : Kernels.t), b) w ->
      check
        (Binary.ii_base b = Binary.ii_base w
        && Binary.ii_paged b = Binary.ii_paged w
        && Binary.pages_used b = Binary.pages_used w)
        "store: warm %s differs from cold" k.name)
    compiled warm;
  metric "store.publish_ms" "ms" (1000.0 *. total "store.publish");
  metric "store.warm_load_ms" "ms" (1000.0 *. total "store.warm_load");
  count "store.disk_hits" s.Binary.disk_hits;
  count "store.warm_compiles" s.Binary.compiles

(* Fold a paged mapping to [target] pages, timed. *)
let fold m target = span ~key:"transform.fold" "transform.fold" (fun () ->
    Transform.fold ~target_pages:target m)

(* Every fold must succeed, and every PE-exact fold must re-validate
   (without the compiler's memory-port budget, which a runtime fold is
   not held to).  Returns (folds, PE-exact folds, failed folds). *)
let check_folds folds =
  List.fold_left
    (fun (n, exact, bad) (what, target, r) ->
      match r with
      | Error e ->
          op_failed "fold %s to %d pages: %s" what target e;
          (n + 1, exact, bad + 1)
      | Ok s when s.Transform.pe_exact -> (
          match Mapping.validate ~check_mem:false s.Transform.mapping with
          | Ok () -> (n + 1, exact + 1, bad)
          | Error es ->
              op_failed "fold %s to %d pages: PE-exact fold does not validate: %s"
                what target (String.concat "; " es);
              (n + 1, exact + 1, bad + 1))
      | Ok _ -> (n + 1, exact, bad))
    (0, 0, 0) folds

let transform_metrics folds =
  let n, exact, bad = check_folds folds in
  metric "transform.fold_ms" "ms" (1000.0 *. total "transform.fold");
  count "transform.folds" n;
  count "transform.failed_folds" bad;
  frac "transform.pe_exact_frac"
    (if n = 0 then 0.0 else float_of_int exact /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Engine replay                                                       *)

(* Step/submit timing of replayed engines.  Steps are timed in batches;
   each batch is attributed to one quarter of the run so that a per-step
   cost that grows with the run shows as [engine.step_cost_growth]. *)
type engine_acc = {
  mutable steps : int;
  mutable submits : int;
  q_time : float array;
  q_steps : int array;
}

let engine_acc () =
  { steps = 0; submits = 0; q_time = Array.make 4 0.0; q_steps = Array.make 4 0 }

let step_batch acc ~quarter ~name e until =
  let n, dt =
    span_dt ~key:"engine.step" name (fun () ->
        let n = ref 0 in
        while
          match Engine.next_event e with
          | Some te -> until te
          | None -> false
        do
          ignore (Engine.step e);
          incr n
        done;
        !n)
  in
  acc.steps <- acc.steps + n;
  acc.q_time.(quarter) <- acc.q_time.(quarter) +. dt;
  acc.q_steps.(quarter) <- acc.q_steps.(quarter) + n

let submit acc ~name e ~at th =
  span ~key:"engine.submit" name (fun () -> Engine.submit e ~at th);
  acc.submits <- acc.submits + 1

let engine_metrics acc ~page_util =
  let us_per_step q =
    if acc.q_steps.(q) = 0 then 0.0
    else 1e6 *. acc.q_time.(q) /. float_of_int acc.q_steps.(q)
  in
  let step_s = total "engine.step" and submit_s = total "engine.submit" in
  count "engine.steps" acc.steps;
  count "engine.submits" acc.submits;
  metric "engine.step_s" "s" step_s;
  metric "engine.submit_s" "s" submit_s;
  metric "engine.us_per_step" "us"
    (if acc.steps = 0 then 0.0 else 1e6 *. step_s /. float_of_int acc.steps);
  metric "engine.step_cost_growth" "ratio"
    (if us_per_step 0 > 0.0 then us_per_step 3 /. us_per_step 0 else 0.0);
  frac "engine.page_util" page_util

(* Allocator activity, counted from OS trace streams. *)
type alloc_acc = {
  mutable decisions : int;
  mutable reshapes : int;
  mutable rewritten : int;
  mutable a_stalls : int;
  mutable grants : int;
  mutable shrunk : int;
}

let alloc_acc () =
  { decisions = 0; reshapes = 0; rewritten = 0; a_stalls = 0; grants = 0; shrunk = 0 }

let count_alloc a events =
  List.iter
    (fun (e : T.event) ->
      match e.payload with
      | T.Alloc_decision _ -> a.decisions <- a.decisions + 1
      | T.Reshape r ->
          a.reshapes <- a.reshapes + 1;
          a.rewritten <- a.rewritten + r.pages_rewritten
      | T.Kernel_stall _ -> a.a_stalls <- a.a_stalls + 1
      | T.Kernel_grant g ->
          a.grants <- a.grants + 1;
          if g.shrunk then a.shrunk <- a.shrunk + 1
      | _ -> ())
    events

let alloc_metrics a =
  count "alloc.decisions" a.decisions;
  count "alloc.reshapes" a.reshapes;
  count "alloc.pages_rewritten" a.rewritten;
  count "alloc.stalls" a.a_stalls;
  frac "alloc.shrunk_grant_frac"
    (if a.grants = 0 then 0.0 else float_of_int a.shrunk /. float_of_int a.grants)

(* ------------------------------------------------------------------ *)
(* Exact quantiles                                                     *)

(* Nearest rank, the rule [Hist.quantile] uses. *)
let rank_of n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let exact_quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min n (rank_of n p) - 1)

(* p99.9 is reported only when at least 10 samples lie beyond it. *)
let p999_reportable n = n - rank_of n 99.9 >= 10

(* The value [Hist.quantile] reports when [x] is the ranked sample: the
   lower bound of [x]'s bucket, clamped to the observed range. *)
let hist_reading ~lo ~hi x =
  let h = Hist.create () in
  Hist.observe h 0.0;
  Hist.observe h x;
  Float.min hi (Float.max lo (Hist.quantile h 100.0))

let self_test_hist_agreement () =
  let sorted = Array.init 1000 (fun i -> float_of_int ((i * 37) mod 1000)) in
  Array.sort compare sorted;
  let h = Hist.create () in
  Array.iter (Hist.observe h) sorted;
  List.iter
    (fun p ->
      check
        (hist_reading ~lo:sorted.(0) ~hi:sorted.(999) (exact_quantile sorted p)
        = Hist.quantile h p)
        "self-test: exact p%g not in the Hist bucket" p)
    [ 50.0; 90.0; 99.0 ];
  check
    ((not (p999_reportable 1_000)) && p999_reportable 100_000)
    "self-test: p99.9 omission rule"

(* ------------------------------------------------------------------ *)
(* Derived seeds                                                       *)

(* The measured phase of every workload rotates through [n] inputs
   derived from the workload seed, so that a metric is a median over
   several inputs rather than the cost of one draw.  From one input to the
   next, serve-overload admission rejects ranged from 2% to 35% of the
   requests (and its wall time with them), so the serve workloads take 16;
   paper-eval pass time varied by about 10%, so it takes 8.  The first
   derived seed is the workload seed itself. *)
let serve_sub_seeds = 16
let paper_sub_seeds = 8

let sub_seed ~n seed i = seed + (1000 * (i mod n))

(* ------------------------------------------------------------------ *)
(* serve-nominal / serve-overload                                      *)

(* Large enough that the engine's superlinear per-step cost falls inside
   the measured run (it is visible from 20k requests up). *)
let serve_requests = 20_000

let serve_params ~overload ~seed =
  {
    Farm.big_params with
    n_requests = serve_requests;
    offered_load = (if overload then 3.0 else 1.0);
    seed;
    policy = Cgra_core.Allocator.Cost_halving;
    reconfig_cost = (if overload then 100.0 else 0.0);
    dispatch = (if overload then Farm.Cost_aware else Farm.Least_loaded);
    epoch = 64.0;
  }

let fleet_configs (p : Farm.params) =
  configs_of
    (List.sort_uniq compare
       (List.map (fun (s : Farm.shard_spec) -> (s.size, s.page_pes)) p.fleet))

let retired_requests (r : Farm.report) =
  List.filter (fun (q : Farm.request) -> q.terminal = Some Farm.Retired) r.requests

let sorted_floats f xs =
  let a = Array.of_list (List.map f xs) in
  Array.sort compare a;
  a

(* Conservation and report-level invariants of one run. *)
let check_serve_report what (r : Farm.report) =
  check (r.retired + r.rejected = r.offered) "%s: retired %d + rejected %d <> offered %d"
    what r.retired r.rejected r.offered;
  List.iter (fun v -> check false "%s: %s" what v) (Farm_fuzz.check_report r)

(* Exact arrival->retire and arrival->dispatch samples of the retired
   requests, sorted. *)
let serve_samples (r : Farm.report) =
  let retired = retired_requests r in
  ( sorted_floats (fun (q : Farm.request) -> q.retired_at -. q.arrival) retired,
    sorted_floats (fun (q : Farm.request) -> q.dispatched -. q.arrival) retired )

(* The exact quantiles of one report must read back as its [Hist]
   summary through their bucket. *)
let check_hist_agreement (r : Farm.report) =
  let lat, _ = serve_samples r in
  let n = Array.length lat in
  let lo = if n = 0 then 0.0 else lat.(0) and hi = if n = 0 then 0.0 else lat.(n - 1) in
  List.iter
    (fun (p, reported) ->
      check
        (hist_reading ~lo ~hi (exact_quantile lat p) = reported)
        "latency p%g: exact %g is not in the bucket of the report's %g" p
        (exact_quantile lat p) reported)
    [ (50.0, r.latency.Hist.p50); (99.0, r.latency.Hist.p99) ]

(* What the simulated metrics need from one run. *)
type run_summary = {
  lat : float array;
  qw : float array;
  offered : int;
  retired : int;
  throughput : float;
}

let summarize (r : Farm.report) =
  let lat, qw = serve_samples r in
  { lat; qw; offered = r.offered; retired = r.retired; throughput = r.throughput }

(* Simulated metrics pooled over one run per derived seed. *)
let serve_sim_metrics (rs : run_summary list) ~wall_s =
  let pool f =
    let a = Array.concat (List.map f rs) in
    Array.sort compare a;
    a
  in
  let lat = pool (fun s -> s.lat) and qw = pool (fun s -> s.qw) in
  let n = Array.length lat in
  let offered = List.fold_left (fun acc s -> acc + s.offered) 0 rs in
  let retired = List.fold_left (fun acc s -> acc + s.retired) 0 rs in
  info "latency samples: %d retired requests over %d runs (open loop, timed \
        from each request's due time; the generator is a virtual-clock event \
        source and is never late)" n (List.length rs);
  metric ~declared:false "sim_rate_rps" "req/s"
    (float_of_int (offered / List.length rs) /. wall_s);
  metric ~declared:false "throughput_rpkc" "req/kcycle"
    (Cgra_util.Stats.mean (List.map (fun s -> s.throughput) rs));
  metric ~declared:false "latency_p50_cycles" "cycles" (exact_quantile lat 50.0);
  metric ~declared:false "latency_p99_cycles" "cycles" (exact_quantile lat 99.0);
  if p999_reportable n then
    metric ~declared:false "latency_p999_cycles" "cycles" (exact_quantile lat 99.9)
  else info "latency_p999_cycles omitted: fewer than 10 samples beyond it";
  metric ~declared:false "queue_wait_p99_cycles" "cycles" (exact_quantile qw 99.0);
  frac ~declared:false "failed_frac"
    (float_of_int (offered - retired) /. float_of_int offered);
  frac "ok_frac" (float_of_int retired /. float_of_int offered)

(* Cold compile of the fleet's suites for one seed, published to a fresh
   store (the suites stay in the memo for the measured runs). *)
let serve_setup ~pool ~seed ~store_dir configs =
  rm_rf store_dir;
  let t0 = now () in
  let st = Cgra_store.open_ store_dir in
  Cgra_store.install st;
  List.iter
    (fun c -> ignore (ok_or_fail "suite" (Binary.compile_suite ~seed ~pool c.arch)))
    configs;
  let dt = now () -. t0 in
  Cgra_store.uninstall ();
  dt

let serve_untraced ~pool ~seed ~seconds ~store_dir ~overload =
  let sub_seeds = serve_sub_seeds in
  let params i = serve_params ~overload ~seed:(sub_seed ~n:sub_seeds seed i) in
  let configs = fleet_configs (params 0) in
  Binary.clear_cache ();
  let setups =
    List.init sub_seeds (fun i ->
        serve_setup ~pool ~seed:(sub_seed ~n:sub_seeds seed i) ~store_dir configs)
  in
  (* the first run of each derived seed: its report and rendering *)
  let firsts = Array.make sub_seeds None in
  let walls =
    watch_heap (fun () ->
        repeat ~seconds ~round:sub_seeds (fun i ->
            Gc.full_major ();
            let t0 = now () in
            (* without the pool: the parallel settle it would drive shows no
               win and is slated for deletion *)
            let r = Farm.run (params i) in
            let dt = now () -. t0 in
            let r = ok_or_fail "farm" r in
            let text = Digest.string (Farm.render ~log:true r) in
            (match firsts.(i mod sub_seeds) with
            | None ->
                check_serve_report "untraced run" r;
                check_hist_agreement r;
                info "derived seed %d: retired %d, rejected %d, %d epochs, %.3f s"
                  (sub_seed ~n:sub_seeds seed i) r.retired r.rejected r.epochs dt;
                firsts.(i mod sub_seeds) <- Some (summarize r, text)
            | Some (_, t0) ->
                check (String.equal text t0)
                  "run %d: report differs from the first run of its seed" i);
            dt))
  in
  let runs = List.map (fun x -> fst (Option.get x)) (Array.to_list firsts) in
  let wall_s = median walls in
  info "measured runs: %d of %d requests, rotating %d derived seeds; set-ups: %d"
    (List.length walls) serve_requests sub_seeds (List.length setups);
  metric "setup_s" "s" (median setups);
  metric "wall_s" "s" wall_s;
  metric "peak_heap_mb" "MB" (heap_mb !peak_heap_words);
  serve_sim_metrics runs ~wall_s;
  (List.length walls * serve_requests, 0)

(* Replay each shard's admit stream into a fresh engine through the
   public next_event/step/submit calls, timing steps and submits. *)
let replay_shards ~seed (p : Farm.params) (r : Farm.report) acc =
  let n_shards = List.length r.shard_reports in
  let admits = Array.make n_shards [] in
  List.iter
    (fun (e : T.event) ->
      match e.payload with
      | T.Farm_admit { req; shard; _ } -> admits.(shard) <- (req, e.time) :: admits.(shard)
      | _ -> ())
    r.farm_events;
  let requests = Array.of_list r.requests in
  let quarter rid = min 3 (rid * 4 / max 1 r.offered) in
  List.for_all
    (fun (s : Farm.shard_report) ->
      let arch =
        Option.get (Cgra.standard ~size:s.s_spec.size ~page_pes:s.s_spec.page_pes)
      in
      let suite = ok_or_fail "suite" (Binary.compile_suite ~seed arch) in
      let e =
        Engine.create ~policy:p.policy ~reconfig_cost:p.reconfig_cost ~suite
          ~total_pages:(Cgra.n_pages arch) ~mode:Os_sim.Multi ()
      in
      List.iter
        (fun (rid, at) ->
          step_batch acc ~quarter:(quarter rid)
            ~name:(Printf.sprintf "engine.step r%d" rid) e (fun te -> te <= at);
          let q = requests.(rid) in
          submit acc ~name:(Printf.sprintf "engine.submit r%d" rid) e ~at
            {
              Thread_model.id = rid;
              segments =
                [ Thread_model.Kernel { kernel = q.Farm.kernel; iterations = q.iterations } ];
            })
        (List.rev admits.(s.s_index));
      step_batch acc ~quarter:3 ~name:"engine.drain" e (fun _ -> true);
      let same = Engine.result e = s.s_os in
      check same "replay: shard %d result differs from the farm's" s.s_index;
      same)
    r.shard_reports

let fabric_name size = Printf.sprintf "%dx%d" size size

(* The Fig. 8 / Fig. 9 per-fabric figures: measured on paper-eval, 0 on
   the serve workloads, which do not run them. *)
let experiments_metrics per_fabric =
  List.iter
    (fun size ->
      let f8, f9 =
        match List.assoc_opt size per_fabric with Some x -> x | None -> (0.0, 0.0)
      in
      metric (Printf.sprintf "experiments.fig8_pct.%s" (fabric_name size)) "%" f8;
      metric (Printf.sprintf "experiments.fig9_gain_pct.%s" (fabric_name size)) "%" f9)
    Experiments.cgra_sizes

let zero_farm_metrics () =
  count "farm.epochs" 0;
  frac "farm.active_shard_frac" 0.0;
  metric "farm.queue_wait_p50_cycles" "cycles" 0.0;
  count "farm.rejected" 0

(* The traced run of a serve workload.  Returns (requests attempted,
   program trace events, traced / untraced Farm.run time - 1). *)
let serve_traced ~pool ~seed ~store_dir ~overload =
  let p = serve_params ~overload ~seed in
  let configs = fleet_configs p in
  start_spans ();
  (* setup, layer by layer: mapper (no store installed), then store *)
  Binary.clear_cache ();
  let mtrace = T.make () in
  let compiled = compile_all ~pool ~mtrace ~seed configs in
  mapper_metrics ~mtrace compiled;
  store_warm_load ~seed (store_publish ~seed ~store_dir compiled) compiled;
  Cgra_store.uninstall ();
  (* untraced reference (the second of two runs), then the traced run;
     all sequential *)
  let ru, untraced_s =
    List.nth
      (List.init 2 (fun _ ->
           span_dt ~key:"farm.untraced" "farm.run untraced" (fun () ->
               ok_or_fail "farm" (Farm.run p))))
      1
  in
  let rt, traced_s =
    span_dt ~key:"farm.traced" "farm.run traced" (fun () ->
        ok_or_fail "farm" (Farm.run ~traced:true p))
  in
  check_serve_report "traced run" rt;
  check_hist_agreement rt;
  List.iter
    (fun v -> check false "farm monitor: %s" v)
    (Farm_fuzz.monitor ~queue_bound:p.queue_bound ~max_resident:p.max_resident
       rt.farm_events);
  check
    (String.equal (Farm.render ~log:true ru) (Farm.render ~log:true rt))
    "traced and untraced reports differ";
  (* engine, by replay *)
  let acc = engine_acc () in
  let replay_ok = replay_shards ~seed p rt acc in
  let shards = rt.shard_reports in
  let n_shards = List.length shards in
  let page_util =
    sum_by (fun (s : Farm.shard_report) -> s.s_os.Os_sim.page_utilization) shards
    /. float_of_int n_shards
  in
  if replay_ok then engine_metrics acc ~page_util
  else info "engine.* withheld: the replay did not reproduce every shard";
  (* allocator, from the shard streams *)
  let a = alloc_acc () in
  List.iter (count_alloc a) rt.shard_events;
  alloc_metrics a;
  (* transform: fold every reshape the runtime performed, as PageMaster
     would on hardware *)
  let requests = Array.of_list rt.requests in
  let folds =
    List.concat
      (List.map2
         (fun (s : Farm.shard_report) events ->
           List.filter_map
             (fun (e : T.event) ->
               match e.payload with
               | T.Reshape { thread; after; _ } ->
                   let kernel = requests.(thread).Farm.kernel in
                   let _, _, b =
                     List.find
                       (fun (c, (k : Kernels.t), _) ->
                         c.size = s.s_spec.size && c.page_pes = s.s_spec.page_pes
                         && k.name = kernel)
                       compiled
                   in
                   Some (kernel, after.T.len, fold b.Binary.paged after.T.len)
               | _ -> None)
             events)
         shards rt.shard_events)
  in
  transform_metrics folds;
  (* OS layer: the shards' aggregate results *)
  let sum f = List.fold_left (fun acc (s : Farm.shard_report) -> acc + f s.s_os) 0 shards in
  count "os.transformations" (sum (fun o -> o.Os_sim.transformations));
  count "os.stalls" (sum (fun o -> o.Os_sim.stalls));
  experiments_metrics [];
  (* farm coordinator *)
  if replay_ok then begin
    let self = untraced_s -. total "engine.step" -. total "engine.submit" in
    check (self >= 0.0) "farm.self_s = %g < 0" self;
    info "farm.self_s is a cross-run estimate: the untraced Farm.run time \
          minus the replayed engine's step and submit time";
    metric ~declared:false "farm.self_s" "s" self
  end;
  count "farm.epochs" rt.epochs;
  frac "farm.active_shard_frac"
    (float_of_int
       (List.fold_left (fun acc (s : Farm.shard_report) -> acc + s.s_epochs) 0 shards)
    /. float_of_int (max 1 (rt.epochs * n_shards)));
  let _, qw = serve_samples rt in
  metric "farm.queue_wait_p50_cycles" "cycles" (exact_quantile qw 50.0);
  count "farm.rejected" rt.rejected;
  let events =
    List.length rt.farm_events
    + List.fold_left (fun acc l -> acc + List.length l) 0 rt.shard_events
  in
  (rt.offered, events, (traced_s /. untraced_s) -. 1.0)

(* ------------------------------------------------------------------ *)
(* paper-eval                                                          *)

let paper_configs () =
  configs_of
    (List.concat_map
       (fun size -> List.map (fun pp -> (size, pp)) Experiments.page_sizes)
       Experiments.cgra_sizes)

let fig8s ?pool ?(key = "experiments.fig8") ~seed () =
  span ~key key (fun () ->
      List.map (fun size -> Experiments.fig8_all ~seed ?pool ~size ()) Experiments.cgra_sizes)

let fig9s ?pool ?(key = "os.fig9") ~seed () =
  span ~key key (fun () ->
      List.map (fun size -> Experiments.fig9_all ~seed ?pool ~size ()) Experiments.cgra_sizes)

let render_figures f8 f9 =
  String.concat ""
    (List.map Experiments.render_fig8 (List.concat f8)
    @ List.map Experiments.render_fig9 (List.concat f9))

(* Every paged mapping folded to each smaller page count. *)
let fold_all compiled =
  List.concat_map
    (fun (c, (k : Kernels.t), b) ->
      let m = b.Binary.paged in
      let what = Printf.sprintf "%s-%s" k.name (config_name c) in
      List.init (Mapping.n_pages_used m - 1) (fun i -> (what, i + 1, fold m (i + 1))))
    compiled

type paper = {
  compiled : (config * Kernels.t * Binary.t) list;
  folds : (string * int * (Transform.shrunk, string) result) list;
  f8 : Experiments.fig8 list list;
  f9 : Experiments.fig9 list list;
  warm_same : bool;
}

(* Operations a paper-eval pass attempts, and how many failed. *)
let paper_outcome ~n_configs p =
  let folds, _, bad_folds = check_folds p.folds in
  check p.warm_same "warm-pass figures differ from the cold pass";
  let attempted = (n_configs * List.length Kernels.all) + folds + 1 in
  let failed =
    (n_configs * List.length Kernels.all) - List.length p.compiled
    + bad_folds
    + if p.warm_same then 0 else 1
  in
  (attempted, failed)

(* One paper-eval pass from a cold memo: compile everything (publishing
   to a fresh store), Fig. 8, folds, Fig. 9, then a warm pass from the
   store.  Returns the pass and its duration. *)
let paper_pass ?pool ~seed ~store_dir configs =
  rm_rf store_dir;
  Binary.clear_cache ();
  Binary.reset_stats ();
  let t0 = now () in
  Cgra_store.install (Cgra_store.open_ store_dir);
  let compiled = compile_all ?pool ~seed configs in
  let f8 = fig8s ?pool ~seed () in
  let folds = fold_all compiled in
  let f9 = fig9s ?pool ~seed () in
  Binary.clear_cache ();
  Binary.reset_stats ();
  let warm = render_figures (fig8s ?pool ~seed ()) (fig9s ?pool ~seed ()) in
  let warm_compiles = (Binary.stats ()).Binary.compiles in
  let dt = now () -. t0 in
  Cgra_store.uninstall ();
  check (warm_compiles = 0) "warm pass ran %d compiles" warm_compiles;
  ({ compiled; folds; f8; f9; warm_same = String.equal warm (render_figures f8 f9) }, dt)

let find_fig8 f8 size =
  List.find (fun (f : Experiments.fig8) -> f.size = size && f.page_pes = 4) (List.concat f8)

let fig9_gain f9 size =
  let f = List.find (fun (f : Experiments.fig9) -> f.size = size && f.page_pes = 4) (List.concat f9) in
  let s = List.find (fun (s : Experiments.fig9_series) -> s.cgra_need = 0.875) f.series in
  (List.find (fun (pt : Experiments.fig9_point) -> pt.n_threads = 16) s.points).improvement_pct

(* Set-up is three discarded warm-up passes, on the first three derived
   seeds.  (The pass itself creates its store; that takes tens of
   microseconds, too short to time steadily.)  The measured passes then
   start with the heap grown and lazy set-up done. *)
let paper_untraced ~pool ~seed ~seconds ~store_dir =
  let sub_seeds = paper_sub_seeds in
  let configs = paper_configs () in
  let n_configs = List.length configs in
  let attempted = ref 0 and failed = ref 0 in
  let pass i =
    let p, dt = paper_pass ~pool ~seed:(sub_seed ~n:sub_seeds seed i) ~store_dir configs in
    let a, f = paper_outcome ~n_configs p in
    attempted := !attempted + a;
    failed := !failed + f;
    (p, dt)
  in
  let setups = List.init 3 (fun i -> snd (pass i)) in
  attempted := 0;
  failed := 0;
  op_failures := [];
  let firsts = Array.make sub_seeds None in
  let walls =
    watch_heap (fun () ->
        repeat ~seconds ~round:sub_seeds (fun i ->
            Gc.full_major ();
            let p, dt = pass i in
            let text = Digest.string (render_figures p.f8 p.f9) in
            (match firsts.(i mod sub_seeds) with
            | None -> firsts.(i mod sub_seeds) <- Some (p.f8, p.f9, text)
            | Some (_, _, t) ->
                check (String.equal text t)
                  "pass %d: figures differ from the first pass of its seed" i);
            dt))
  in
  let f8, f9, _ = Option.get firsts.(0) in
  info "measured passes: %d, rotating %d derived seeds; set-up passes: %d; \
        configs: %d fabrics x %d kernels"
    (List.length walls) sub_seeds (List.length setups) n_configs
    (List.length Kernels.all);
  metric "setup_s" "s" (median setups);
  metric "wall_s" "s" (median walls);
  metric "peak_heap_mb" "MB" (heap_mb !peak_heap_words);
  let failed_frac = float_of_int !failed /. float_of_int !attempted in
  frac ~declared:false "failed_frac" failed_frac;
  frac "ok_frac" (1.0 -. failed_frac);
  info "figures below are those of the workload seed itself";
  metric ~declared:false "fig8_geomean_pct" "%"
    (Cgra_util.Stats.geomean
       (List.map (fun s -> (find_fig8 f8 s).geomean_pct) Experiments.cgra_sizes));
  metric ~declared:false "fig9_gain_pct" "%"
    (Cgra_util.Stats.mean (List.map (fig9_gain f9) Experiments.cgra_sizes));
  info "paper reference for fig9_gain_pct: >30%% (4x4), >75%% (6x6), >150%% (8x8); \
        the model is not validated against hardware";
  (!attempted, !failed)

(* Fig. 9's thread sets (its grid and seed rule), replayed through the
   engine: the same closed batches [Os_sim.run] simulates, stepped in 16
   simulated-time slices so that per-step cost is seen across the run. *)
let fig9_needs = [ 0.5; 0.75; 0.875 ]
let fig9_thread_counts = [ 1; 2; 4; 8; 16 ]
let fig9_replicates = 3

let replay_events = ref 0

let replay_fig9 ~seed configs acc a =
  let utils = ref [] in
  let ok =
    List.for_all
      (fun c ->
        let suite = ok_or_fail "suite" (Binary.compile_suite ~seed c.arch) in
        let total_pages = Cgra.n_pages c.arch in
        List.for_all
          (fun cgra_need ->
            List.for_all
              (fun n_threads ->
                List.for_all
                  (fun rep ->
                    let threads =
                      Workload.generate
                        ~seed:(seed + (1009 * rep) + (31 * n_threads))
                        ~n_threads ~cgra_need ~suite ()
                    in
                    let expect =
                      Os_sim.run { suite; threads; total_pages; mode = Os_sim.Multi }
                    in
                    let tr = T.make () in
                    let e =
                      Engine.create ~trace:tr ~n_threads ~suite ~total_pages
                        ~mode:Os_sim.Multi ()
                    in
                    List.iter
                      (fun (th : Thread_model.t) ->
                        submit acc ~name:(Printf.sprintf "engine.submit t%d" th.id) e
                          ~at:0.0 th)
                      threads;
                    let slice = expect.Os_sim.makespan /. 16.0 in
                    for i = 0 to 15 do
                      let bound = if i = 15 then Float.infinity else slice *. float_of_int (i + 1) in
                      step_batch acc ~quarter:(i / 4) ~name:"engine.step" e
                        (fun te -> te <= bound)
                    done;
                    let got = Engine.result e in
                    count_alloc a (T.events tr);
                    replay_events := !replay_events + T.n_events tr;
                    utils := got.Os_sim.page_utilization :: !utils;
                    let same = got = expect in
                    check same "replay: Fig. 9 batch %s need %g threads %d rep %d differs"
                      (config_name c) cgra_need n_threads rep;
                    same)
                  (List.init fig9_replicates Fun.id))
              fig9_thread_counts)
          fig9_needs)
      configs
  in
  (ok, Cgra_util.Stats.mean !utils)

let paper_traced ~pool ~seed ~store_dir =
  let configs = paper_configs () in
  let n_configs = List.length configs in
  (* untraced reference: the second of two passes *)
  let untraced_p, untraced_s =
    List.nth (List.init 2 (fun _ -> paper_pass ~pool ~seed ~store_dir configs)) 1
  in
  let attempted, _ = paper_outcome ~n_configs untraced_p in
  op_failures := [];
  (* the same pass, layer by layer *)
  start_spans ();
  rm_rf store_dir;
  Binary.clear_cache ();
  Binary.reset_stats ();
  let t0 = now () in
  let mtrace = T.make () in
  let compiled = compile_all ~pool ~mtrace ~seed configs in
  let st = store_publish ~seed ~store_dir compiled in
  let f8 = fig8s ~pool ~seed () in
  let folds = fold_all compiled in
  let f9 = fig9s ~pool ~seed () in
  store_warm_load ~seed st compiled;
  let warm =
    render_figures
      (fig8s ~pool ~key:"experiments.warm.fig8" ~seed ())
      (fig9s ~pool ~key:"experiments.warm.fig9" ~seed ())
  in
  let traced_s = now () -. t0 in
  info "untraced reference pass %.3f s; traced pass %.3f s" untraced_s traced_s;
  check (String.equal warm (render_figures f8 f9)) "traced warm pass differs";
  check
    (String.equal (render_figures f8 f9) (render_figures untraced_p.f8 untraced_p.f9))
    "traced figures differ from the untraced pass";
  mapper_metrics ~mtrace compiled;
  transform_metrics folds;
  let acc = engine_acc () and a = alloc_acc () in
  let replay_ok, page_util = replay_fig9 ~seed configs acc a in
  Cgra_store.uninstall ();
  if replay_ok then engine_metrics acc ~page_util
  else info "engine.* withheld: the replay did not reproduce every batch";
  alloc_metrics a;
  let points =
    List.concat_map
      (fun (f : Experiments.fig9) ->
        List.concat_map (fun (s : Experiments.fig9_series) -> s.points) f.series)
      (List.concat f9)
  in
  count "os.transformations"
    (List.fold_left (fun acc (pt : Experiments.fig9_point) -> acc + pt.transformations) 0 points);
  count "os.stalls"
    (List.fold_left (fun acc (pt : Experiments.fig9_point) -> acc + pt.stalls) 0 points);
  metric ~declared:false "os.fig9_s" "s" (total "os.fig9");
  experiments_metrics
    (List.map
       (fun size -> (size, ((find_fig8 f8 size).geomean_pct, fig9_gain f9 size)))
       Experiments.cgra_sizes);
  zero_farm_metrics ();
  (attempted, T.n_events mtrace + !replay_events, (traced_s /. untraced_s) -. 1.0)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let workloads = [ "serve-nominal"; "serve-overload"; "paper-eval" ]

let held_out_seed = 7

(* Span files and the throw-away stores, relative to the repository root. *)
let out_dir = "perfbench/out"

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and traced = ref 0 in
  let rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " workload seed (default 0)");
      ("--seconds", Arg.Set_float seconds, " length of the measured phase");
      ("--trace", Arg.Set_int traced, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision to stamp into the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "'");
    exit 2
  end;
  let nproc = Domain.recommended_domain_count () in
  let pool = Pool.create ~domains:nproc () in
  mkdir_p out_dir;
  let store_dir = Filename.concat out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  info "perfbench %s seed %d (held-out seed for claims: %d) seconds %g trace %d"
    !workload !seed held_out_seed !seconds !traced;
  info "host: nproc %d, pool width %d, OCaml %s, rev %s" nproc (Pool.width pool)
    Sys.ocaml_version !rev;
  self_test_hist_agreement ();
  let attempted, failed =
    Fun.protect
      ~finally:(fun () ->
        Cgra_store.uninstall ();
        rm_rf store_dir;
        Pool.shutdown pool)
      (fun () ->
        match (!workload, !traced) with
        | "paper-eval", 0 ->
            paper_untraced ~pool ~seed:!seed ~seconds:!seconds ~store_dir
        | w, 0 ->
            serve_untraced ~pool ~seed:!seed ~seconds:!seconds ~store_dir
              ~overload:(w = "serve-overload")
        | w, _ ->
            let attempted, events, overhead =
              if w = "paper-eval" then paper_traced ~pool ~seed:!seed ~store_dir
              else
                serve_traced ~pool ~seed:!seed ~store_dir
                  ~overload:(w = "serve-overload")
            in
            let sp = T.events !spans in
            (* one file pair per workload, overwritten by its next traced run *)
            let base = Filename.concat out_dir w in
            let t1 = now () in
            Out_channel.with_open_bin (base ^ ".spans.jsonl") (fun oc ->
                output_string oc (Cgra_trace.Export.jsonl sp));
            Out_channel.with_open_bin (base ^ ".spans.chrome.json") (fun oc ->
                output_string oc (Cgra_trace.Export.chrome ~process_name:"perfbench" sp));
            let export_s = now () -. t1 in
            info "spans: %d events -> %s.spans.{jsonl,chrome.json}" (List.length sp) base;
            count "trace.events" events;
            metric "trace.overhead_frac" "ratio" overhead;
            metric "trace.export_ms" "ms" (1000.0 *. export_s);
            (attempted, List.length !op_failures))
  in
  let ms = List.rev !metrics in
  List.iter (fun m -> info "%-34s %s %s" m.name (json_number m.value) m.unit_) ms;
  List.iter
    (fun f -> prerr_endline ("perfbench: failed operation: " ^ f))
    (List.rev !op_failures);
  List.iter (fun f -> prerr_endline ("perfbench: FAILED: " ^ f)) (List.rev !failures);
  let correct = !failures = [] in
  let failed = failed + List.length !failures in
  let fields =
    List.filter_map
      (fun m ->
        if m.declared then
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
               (json_number m.value) m.unit_)
        else None)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
