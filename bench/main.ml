(* Benchmark harness: regenerates every figure of the paper's evaluation
   and micro-benchmarks the PageMaster transformation (the low-order
   polynomial-time claim) and the compiler.

   Usage:  dune exec bench/main.exe                   (default families + ablations)
           dune exec bench/main.exe -- FAMILY         (one family, see below)
           dune exec bench/main.exe -- FAMILY --json  (also write its BENCH_*.json)
           dune exec bench/main.exe -- ablation       (ablations only)
           dune exec bench/main.exe -- gate           (re-run + compare baselines)
           dune exec bench/main.exe -- gate --check   (validate baselines only)
           dune exec bench/main.exe -- gate --farm-big  (also gate farm-big)

   The bench families are the entries of [families] below: micro, fig9,
   fig8, farm and farm-big.  Family NAME writes BENCH_NAME.json ("-" as
   "_") at the repo root; a family left out of the default set (farm-big)
   joins `gate` when its --NAME flag is given.  Adding a family is one
   registry entry plus its [collect] function.

   Timing discipline: every micro row is min-of-N (warm-up, calibrated
   repetition count, N timed samples, minimum recorded) with the run
   count and (max-min)/min spread stored beside the value, so the
   committed BENCH_*.json rows are gate-able — `gate` re-measures and
   fails loudly when a row regresses beyond its tolerance
   (Cgra_prof.Bench_gate).

   Parallel sections (fig8/fig9/ablation sweeps) fan out across
   CGRA_DOMAINS worker domains; output is byte-identical at any width.
   The BENCH_*.json files at the repo root are the committed perf
   baseline — regenerate with `make bench-json` and compare trajectories
   across PRs. *)

open Cgra_core
module Bench_gate = Cgra_prof.Bench_gate
module Pool = Cgra_util.Pool

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ----- min-of-N rows ----- *)

(* The gated row for the samples of one metric: [pick] chooses the
   recorded value (the minimum of wall times, the best of rates, the
   median of ratios); the spread is (max-min)/min over the samples, in
   percent. *)
let summarize ?(domains = 1) ?(pick = `Min) name samples : Bench_gate.row =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let mn = sorted.(0) and mx = sorted.(n - 1) in
  {
    name;
    value =
      (match pick with `Min -> mn | `Max -> mx | `Median -> sorted.(n / 2));
    domains;
    runs = n;
    spread = (if mn > 0.0 then (mx -. mn) /. mn *. 100.0 else 0.0);
  }

let n_samples = 5

(* One measurement: warm up once, grow the repetition count until one
   batch takes >= 20 ms (so the 1 us clock quantizes below 0.01%), then
   take [n_samples] batches and keep the minimum — the least-disturbed
   run on a shared machine, which is what makes committed rows stable
   enough to gate on.  [domains] is the pool width the measured code ran
   at. *)
let measure ?domains name f =
  ignore (f ());
  let batch reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    Unix.gettimeofday () -. t0
  in
  let rec calibrate reps =
    if batch reps >= 0.02 || reps >= 1_000_000 then reps
    else calibrate (reps * 4)
  in
  let reps = calibrate 1 in
  summarize ?domains name
    (List.init n_samples (fun _ -> batch reps /. float_of_int reps *. 1e9))

let show rows =
  List.iter
    (fun (r : Bench_gate.row) ->
      let human =
        if r.value >= 1_000_000.0 then
          Printf.sprintf "%10.2f ms/run" (r.value /. 1e6)
        else if r.value >= 1_000.0 then
          Printf.sprintf "%10.2f us/run" (r.value /. 1e3)
        else Printf.sprintf "%10.0f ns/run" r.value
      in
      Printf.printf "  %-40s %s  (min of %d, spread %.1f%%)\n" r.name human
        r.runs r.spread)
    rows

(* ----- Fig. 8: compile-time constraint cost ----- *)

(* The mapper's work over the same grid (every fabric, every kernel,
   seed 0), compiled one kernel at a time on a cleared memo with no pool:
   sequential counts are exact, so these rows reproduce on any host and
   gate with no tolerance ("work " rows, Bench_gate.work).  Baseline
   reuse across page sizes shows as the baseline searches actually
   run. *)
let fig8_work ~quiet =
  Binary.clear_cache ();
  let trace = Cgra_trace.Trace.make () in
  let compiles = ref 0 in
  List.iter
    (fun size ->
      List.iter
        (fun page_pes ->
          match Cgra_arch.Cgra.standard ~size ~page_pes with
          | None -> ()
          | Some arch -> (
              match Binary.compile_suite ~trace arch with
              | Ok suite -> compiles := !compiles + List.length suite
              | Error e -> failwith e))
        Experiments.page_sizes)
    Experiments.cgra_sizes;
  Binary.clear_cache ();
  let event name =
    List.fold_left
      (fun acc (e : Cgra_trace.Trace.event) ->
        match e.payload with
        | Cgra_trace.Trace.Counter { name = n; value } when n = name -> acc +. value
        | _ -> acc)
      0.0
      (Cgra_trace.Trace.events trace)
  in
  let shared =
    Option.value ~default:0.0
      (List.assoc_opt "binary.cache.base_shared" (Cgra_trace.Trace.counters trace))
  in
  let rows =
    List.map
      (fun (name, v) -> summarize ("work fig8 grid " ^ name) [ v ])
      [
        ("attempts launched", event "sched.race.launched");
        ("route searches", event "sched.route.searches");
        ("route expansions", event "sched.route.expansions");
        ("baseline searches", float_of_int !compiles -. shared);
      ]
  in
  if not quiet then begin
    Printf.printf
      "\nMapper work over the grid (%d binaries, seed 0, sequential, cold \
       memo; %.0f baselines shared across page sizes):\n"
      !compiles shared;
    List.iter
      (fun (r : Bench_gate.row) -> Printf.printf "  %-40s %12.0f\n" r.name r.value)
      rows
  end;
  rows

(* The gated quality rows: every fabric's 4-PE-page geomean (the page
   size all three fabrics share, and the one Fig. 8 headlines).  These
   are deterministic functions of the scheduler at seed 0 — no timing,
   no spread — so the gate direction flips: a drop in any row means the
   compiler got worse at its job. *)
let fig8 ~pool ~quiet =
  if not quiet then
    section
      "Figure 8 - performance cost of the paging constraints (100 * II_b / \
       II_c)";
  let quality =
    List.concat_map
      (fun size ->
        let figs = Experiments.fig8_all ~pool ~size () in
        if not quiet then
          List.iter
            (fun f ->
              print_newline ();
              print_endline (Experiments.render_fig8 f))
            figs;
        List.filter_map
          (fun (f : Experiments.fig8) ->
            if f.page_pes <> 4 then None
            else
              Some
                (summarize ~domains:(Pool.width pool)
                   (Printf.sprintf "fig8 %dx%d p4 geomean" size size)
                   [ f.geomean_pct ]))
          figs)
      Experiments.cgra_sizes
  in
  quality @ fig8_work ~quiet

(* ----- Fig. 9: multithreading improvement ----- *)

let fig9_replicates = 3

(* Wall-clock rows are min-of-N too: each sample clears the compile memo
   so every run pays the same (cold) compile path, and only the first
   sample prints the figures. *)
let fig9_samples = 3

let fig9 ~pool ~quiet =
  if not quiet then
    section
      (Printf.sprintf
         "Figure 9 - throughput improvement of multithreading (mean of %d \
          workloads)"
         fig9_replicates);
  let w = Pool.width pool in
  let rows =
    List.map
      (fun size ->
        let sample i =
          Binary.clear_cache ();
          let t0 = Unix.gettimeofday () in
          let figs =
            Experiments.fig9_all ~replicates:fig9_replicates ~pool ~size ()
          in
          let dt = Unix.gettimeofday () -. t0 in
          if i = 0 && not quiet then
            List.iter
              (fun f ->
                print_newline ();
                print_endline (Experiments.render_fig9 f))
              figs;
          dt
        in
        summarize ~domains:w
          (Printf.sprintf "fig9 %dx%d sweep" size size)
          (List.init fig9_samples sample))
      Experiments.cgra_sizes
  in
  let total =
    List.fold_left (fun acc (r : Bench_gate.row) -> acc +. r.value) 0.0 rows
  in
  let spread =
    List.fold_left (fun acc (r : Bench_gate.row) -> Float.max acc r.spread)
      0.0 rows
  in
  rows
  @ [
      { name = "fig9 full sweep"; value = total; runs = fig9_samples; spread;
        domains = w };
    ]

(* ----- micro-benchmarks ----- *)

let transform_benches () =
  (* the PageMaster fold on real kernel mappings *)
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:8 ~page_pes:4) in
  let mapping name =
    match
      Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged arch
        (Cgra_kernels.Kernels.find_exn name).graph
    with
    | Ok m -> m
    | Error e -> failwith e
  in
  let sobel = mapping "sobel" in
  let swim = mapping "swim" in
  [
    ( "fold sobel 8x8 to 1 page",
      fun () -> ignore (Result.get_ok (Transform.fold ~target_pages:1 sobel)) );
    ( "fold swim 8x8 to 2 pages",
      fun () -> ignore (Result.get_ok (Transform.fold ~target_pages:2 swim)) );
  ]

let greedy_benches () =
  (* Algorithm 1 at growing page counts: the low-order-polynomial claim *)
  List.map
    (fun n ->
      ( Printf.sprintf "greedy transform N=%03d to M=%03d" n (max 1 (n / 2)),
        fun () ->
          ignore (Result.get_ok (Greedy.run ~n ~m:(max 1 (n / 2)) ~ii_p:2 ~iterations:8))
      ))
    [ 8; 16; 32; 64; 128; 256 ]

let mapper_benches () =
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:4 ~page_pes:4) in
  let mpeg = (Cgra_kernels.Kernels.find_exn "mpeg").graph in
  let sobel = (Cgra_kernels.Kernels.find_exn "sobel").graph in
  [
    ( "compile mpeg 4x4 (paged)",
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged arch mpeg)) );
    ( "compile sobel 4x4 (paged)",
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged arch sobel)) );
  ]

(* The same compiles with the (II, attempt) ladder raced across a pool —
   results are bit-identical to the sequential rows above; only the wall
   clock differs.  [j] is the requested lane count (the pool clamps to
   the machine's cores, so the effective width may be lower). *)
let mapper_raced_benches ~pool ~j () =
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:4 ~page_pes:4) in
  let mpeg = (Cgra_kernels.Kernels.find_exn "mpeg").graph in
  let sobel = (Cgra_kernels.Kernels.find_exn "sobel").graph in
  [
    ( Printf.sprintf "compile mpeg 4x4 (paged, -j %d)" j,
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map ~pool Cgra_mapper.Scheduler.Paged arch
                mpeg)) );
    ( Printf.sprintf "compile sobel 4x4 (paged, -j %d)" j,
      fun () ->
        ignore
          (Result.get_ok
             (Cgra_mapper.Scheduler.map ~pool Cgra_mapper.Scheduler.Paged arch
                sobel)) );
  ]

(* Warm start: thread launch as a disk read.  The suite is compiled once
   into a throwaway store; each timed run then drops the in-memory memo,
   so what's on the clock is the full artifact path — open, integrity
   check, decode — with zero scheduler runs.  Contrast with the cold
   "compile sobel 4x4 (paged)" row above. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_warm_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgra-bench-store-%d" (Unix.getpid ()))
  in
  let store = Cgra_store.open_ dir in
  let arch = Option.get (Cgra_arch.Cgra.standard ~size:4 ~page_pes:4) in
  Binary.clear_cache ();
  (match Binary.compile_suite arch with
  | Ok bs ->
      List.iter2
        (fun b k -> Cgra_store.save store ~seed:0 arch k b)
        bs Cgra_kernels.Kernels.all
  | Error e -> failwith e);
  Cgra_store.install store;
  Fun.protect
    ~finally:(fun () ->
      Cgra_store.uninstall ();
      Binary.clear_cache ();
      rm_rf dir)
    (fun () -> f arch)

let warm_start_benches arch =
  let sobel = Cgra_kernels.Kernels.find_exn "sobel" in
  [
    ( "compile-sobel-warm",
      fun () ->
        Binary.clear_cache ();
        ignore (Result.get_ok (Binary.compile arch sobel)) );
    ( "compile-suite-warm",
      fun () ->
        Binary.clear_cache ();
        ignore (Result.get_ok (Binary.compile_suite arch)) );
  ]

(* The micro rows time their own code paths, sequential or on their own
   4-domain pool, so the harness's pool goes unused. *)
let micro ~pool:_ ~quiet =
  if not quiet then
    section "Micro-benchmarks - PageMaster runtime vs. compiler runtime";
  let group title measure_rows =
    if not quiet then print_endline title;
    let rows = measure_rows () in
    if not quiet then show rows;
    rows
  in
  let measure_all ?domains benches () =
    List.map (fun (name, f) -> measure ?domains name f) benches
  in
  let transform_rows =
    group "\nPageMaster fold (runtime transformation):"
      (measure_all (transform_benches ()))
  in
  let greedy_rows =
    group "\nGreedy Algorithm 1 (page-level, growing N, 8 kernel iterations):"
      (measure_all (greedy_benches ()))
  in
  let mapper_rows =
    group
      "\nCompiler (for contrast: the transformation must be, and is, orders of\n\
       magnitude cheaper than recompiling):"
      (measure_all (mapper_benches ()))
  in
  let raced_rows =
    group
      "\nCompiler, speculative race (same results, ladder fanned across 4 \
       domains):"
      (fun () ->
        Pool.with_pool ~domains:4 (fun pool ->
            measure_all ~domains:4 (mapper_raced_benches ~pool ~j:4 ()) ()))
  in
  let warm_rows =
    group
      "\nWarm start from the persistent store (per-run: drop the in-memory \
       memo,\n\
       then load, integrity-check and decode the disk artifact; 0 scheduler \
       runs):"
      (fun () ->
        with_warm_store (fun arch -> measure_all (warm_start_benches arch) ()))
  in
  transform_rows @ greedy_rows @ mapper_rows @ raced_rows @ warm_rows

(* ----- farm: sustained-load serving rows ----- *)

(* The farm quality rows are virtual-clock simulation outputs —
   deterministic functions of the seed, like fig8 — and the gate
   compares them with a flat epsilon: throughput rows gate upward, the
   latency quantiles gate downward.  They still run min-of-3 with the
   spread measured rather than asserted: a nonzero spread in a committed
   file would itself be a determinism bug, surfaced where the gate can
   see it.  Three-plus offered loads trace the load curve from headroom
   through saturation. *)
let farm_samples = 3

let farm_loads = [ 0.5; 1.0; 2.0; 4.0 ]

let farm_run ?pool p =
  match Cgra_farm.Farm.run ?pool p with
  | Ok r -> r
  | Error e ->
      failwith
        (Printf.sprintf "farm load %.1f: %s" p.Cgra_farm.Farm.offered_load e)

let farm_quality_metrics =
  [
    ("req/kcycle", fun (r : Cgra_farm.Farm.report) -> r.Cgra_farm.Farm.throughput);
    ("latency p50", fun r -> r.Cgra_farm.Farm.latency.p50);
    ("latency p99", fun r -> r.Cgra_farm.Farm.latency.p99);
  ]

(* One config, min-of-[farm_samples]: returns the first report (for
   rendering) and the metric rows. *)
let farm_metric_rows ~pool ~prefix p =
  let reports = List.init farm_samples (fun _ -> farm_run ~pool p) in
  let rows =
    List.map
      (fun (name, read) ->
        summarize ~domains:(Pool.width pool)
          (Printf.sprintf "%s %s" prefix name)
          (List.map read reports))
      farm_quality_metrics
  in
  (List.hd reports, rows)

let farm ~pool ~quiet =
  if not quiet then
    section
      "Farm - sustained multi-tenant load on the mixed fleet (deterministic, \
       virtual clock)";
  List.concat_map
    (fun load ->
      let p = { Cgra_farm.Farm.default_params with offered_load = load } in
      let first, rows =
        farm_metric_rows ~pool ~prefix:(Printf.sprintf "farm load%.1f" load) p
      in
      if not quiet then begin
        print_newline ();
        print_string (Cgra_farm.Farm.render first)
      end;
      rows)
    farm_loads

(* ----- farm-big: the at-scale harness ----- *)

(* Farm.big_params: 24 mixed shards, 8 tenants, 10^4 requests.  The
   committed file carries four row families: quality at nominal load,
   the overload pair (load 2.0, reconfig cost 100) that pins the
   cost-aware dispatch win — least-loaded and cost-aware side by side,
   so the p99 improvement is in the baseline itself, not a claim — the
   wall-clock simulation rate of the epoch coordinator, and the
   wall(2N)/wall(N) scaling row Bench_gate holds to a fixed ceiling. *)

let farm_big_quality_rows ~pool ~quiet =
  let p = Cgra_farm.Farm.big_params in
  let show (r : Cgra_farm.Farm.report) =
    if not quiet then begin
      print_newline ();
      print_string (Cgra_farm.Farm.render r)
    end
  in
  let first, base_rows =
    farm_metric_rows ~pool ~prefix:"farm-big load1.0" p
  in
  show first;
  let overload dispatch =
    let p =
      { p with Cgra_farm.Farm.offered_load = 2.0; reconfig_cost = 100.0;
        dispatch }
    in
    let first, rows =
      farm_metric_rows ~pool
        ~prefix:
          (Printf.sprintf "farm-big load2.0 rc100 %s"
             (Cgra_farm.Farm.dispatch_name dispatch))
        p
    in
    show first;
    rows
  in
  base_rows
  @ overload Cgra_farm.Farm.Least_loaded
  @ overload Cgra_farm.Farm.Cost_aware

(* How the front end's wall time grows with the request count:
   wall(2N)/wall(N) at N = big_params' 10^4, sequential.  Each sample is
   one N run and one 2N run back to back, with a full major GC before
   each, so a drift in host speed hits both halves of a ratio; the row
   is the median ratio, robust to a sample the host disturbed.  The
   ratio cancels the host's speed, which is why Bench_gate holds it to
   a fixed ceiling. *)
let scaling_samples = 7

let farm_big_scaling_row () =
  let p = Cgra_farm.Farm.big_params in
  let n = p.Cgra_farm.Farm.n_requests in
  let wall p =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (farm_run p);
    Unix.gettimeofday () -. t0
  in
  let p2 = { p with Cgra_farm.Farm.n_requests = 2 * n } in
  ignore (farm_run p2);
  summarize ~pick:`Median "farm-big scaling wall(2N)/wall(N)"
    (List.init scaling_samples (fun _ ->
         let w1 = wall p in
         wall p2 /. w1))

(* Requests per wall-second through the coordinator, min-of-N (best
   rate), with the suite compile pre-warmed so the clock sees the
   discrete-event front end and not the mapper. *)
let farm_big_rate_rows ~quiet =
  let p = Cgra_farm.Farm.big_params in
  ignore (farm_run p);
  let rate =
    summarize ~pick:`Max "farm-big sim-rate -j1"
      (List.init farm_samples (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (farm_run p);
           float_of_int p.Cgra_farm.Farm.n_requests
           /. (Unix.gettimeofday () -. t0)))
  in
  let rows = [ rate; farm_big_scaling_row () ] in
  if not quiet then begin
    print_endline "\nFront-end simulation rate (requests/wall-second):";
    List.iter
      (fun (r : Bench_gate.row) ->
        let value =
          if Bench_gate.scaling r.name then Printf.sprintf "%12.2fx" r.value
          else Printf.sprintf "%7.0f req/s" r.value
        in
        Printf.printf "  %-36s %s  (%s of %d, spread %.1f%%, %d domain%s)\n"
          r.name value
          (if Bench_gate.scaling r.name then "median" else "best")
          r.runs r.spread r.domains
          (if r.domains = 1 then "" else "s"))
      rows
  end;
  rows

let farm_big ~pool ~quiet =
  if not quiet then
    section
      "Farm at scale - 24 mixed shards, 8 tenants, 10000 requests (epoch \
       coordinator)";
  let quality = farm_big_quality_rows ~pool ~quiet in
  quality @ farm_big_rate_rows ~quiet

(* ----- the bench-family registry ----- *)

type family = {
  name : string;  (** mode name; the baseline is [Bench_gate.file name] *)
  unit_ : string;
  extras : (string * Cgra_trace.Json.value) list;
      (** run parameters recorded in the baseline file *)
  in_default : bool;
      (** run by the default mode and a plain [gate]; otherwise [--NAME]
          opts the family into [gate] *)
  collect : pool:Pool.t -> quiet:bool -> Bench_gate.row list;
      (** measure the family once, printing its report unless [quiet] *)
}

(* In `gate` order. *)
let families =
  let int = Cgra_trace.Json.num_of_int in
  let nominal = Cgra_farm.Farm.default_params in
  let big = Cgra_farm.Farm.big_params in
  [
    { name = "micro"; unit_ = "ns_per_run"; extras = []; in_default = true;
      collect = micro };
    { name = "fig9"; unit_ = "wall_s";
      extras = [ ("replicates", int fig9_replicates) ]; in_default = true;
      collect = fig9 };
    { name = "fig8"; unit_ = "percent|count"; extras = []; in_default = true;
      collect = fig8 };
    { name = "farm"; unit_ = "req_per_kcycle|cycles";
      extras =
        [ ("requests", int nominal.n_requests); ("seed", int nominal.seed) ];
      in_default = true; collect = farm };
    (* re-measures a 10^4-request fleet seven ways: opt-in *)
    { name = "farm-big"; unit_ = "req_per_kcycle|cycles|req_per_wall_s";
      extras =
        [ ("requests", int big.n_requests);
          ("shards", int (List.length big.fleet));
          ("tenants", int big.n_tenants); ("seed", int big.seed) ];
      in_default = false; collect = farm_big };
  ]

let doc f rows = { Bench_gate.bench = f.name; unit_ = f.unit_; rows }

let run ~pool ~json f =
  let rows = f.collect ~pool ~quiet:false in
  if json then begin
    let path = Bench_gate.file f.name in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          (Bench_gate.emit ~domains:(Pool.width pool) ~extras:f.extras
             (doc f rows)));
    Printf.printf "\nwrote %s (%d results, %s)\n" path (List.length rows) f.unit_
  end

(* ----- gate: the enforced perf contract ----- *)

(* [check_only] compares each committed baseline against itself: it
   proves the file parses, is filed under its family, every row has a
   tolerance, and the self-comparison passes — cheap enough for @smoke.
   The full gate re-measures and compares for real.  Every baseline is
   loaded before anything is measured. *)
let run_gate ~pool ~check_only families =
  section
    (if check_only then "Bench gate - baseline validation (tolerance check only)"
     else "Bench gate - fresh measurements vs. committed baselines");
  let baselines =
    List.map
      (fun f ->
        match Bench_gate.load ~bench:f.name (Bench_gate.file f.name) with
        | Ok d -> d
        | Error e -> failwith e)
      families
  in
  let currents =
    List.map2
      (fun f baseline ->
        if check_only then baseline else doc f (f.collect ~pool ~quiet:true))
      families baselines
  in
  let failures =
    List.fold_left2
      (fun acc (baseline : Bench_gate.doc) current ->
        let outcomes = Bench_gate.check ~baseline ~current in
        Printf.printf "\n%s (%s):\n%s" baseline.bench baseline.unit_
          (Bench_gate.render ~unit_:baseline.unit_ outcomes);
        acc + Bench_gate.failures outcomes)
      0 baselines currents
  in
  if failures > 0 then begin
    Printf.printf "\nbench gate: %d row(s) FAILED\n" failures;
    exit 1
  end
  else print_endline "\nbench gate: all rows within tolerance"

(* ----- ablations (design choices DESIGN.md calls out) ----- *)

let run_ablation ~pool () =
  section "Ablations - assumptions and design choices, varied";
  let show title = function
    | Ok rows ->
        print_newline ();
        print_endline (Experiments.render_ablation ~title rows)
    | Error e -> Printf.printf "%s: error %s\n" title e
  in
  show
    "Reconfiguration cost per PageMaster reshape (8x8, 4-PE pages; the paper \
     assumes 0)"
    (Experiments.ablation_reconfig_cost ~pool ~size:8 ~page_pes:4
       ~costs:[ 0; 10; 100; 1000; 10000 ] ());
  show "Allocation policy (8x8, 4-PE pages)"
    (Experiments.ablation_policy ~pool ~size:8 ~page_pes:4 ());
  show "Memory ports per row bus (4x4, 4-PE pages)"
    (Experiments.ablation_mem_ports ~pool ~size:4 ~page_pes:4 ~ports:[ 1; 2; 4; 8 ] ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let opt_in f = "--" ^ f.name in
  let flags =
    "--json" :: "--check"
    :: List.filter_map
         (fun f -> if f.in_default then None else Some (opt_in f))
         families
  in
  let json = List.mem "--json" args in
  let check_only = List.mem "--check" args in
  let defaults = List.filter (fun f -> f.in_default) families in
  let gated =
    List.filter (fun f -> f.in_default || List.mem (opt_in f) args) families
  in
  let positional = List.filter (fun a -> not (List.mem a flags)) args in
  let mode = match positional with [] -> "all" | [ m ] -> m | _ -> "" in
  Pool.with_pool (fun pool ->
      if Pool.width pool > 1 then
        Printf.printf "(parallel sections across %d domains)\n" (Pool.width pool);
      match (mode, List.find_opt (fun f -> f.name = mode) families) with
      | _, Some f -> run ~pool ~json f
      | "ablation", None -> run_ablation ~pool ()
      | "gate", None -> run_gate ~pool ~check_only gated
      | "all", None ->
          List.iter (run ~pool ~json) defaults;
          run_ablation ~pool ()
      | _, None ->
          Printf.eprintf
            "bad arguments: %s (expected one mode of %s | ablation | gate | \
             all, and flags from %s)\n"
            (String.concat " " positional)
            (String.concat " | " (List.map (fun f -> f.name) families))
            (String.concat ", " flags);
          exit 1)
