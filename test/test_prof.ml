(* The observability layer's contract: histogram quantiles are exact at
   bucket edges and merges are order-independent; a profile report is a
   deterministic function of the trace (golden digests, live == post-hoc
   JSONL round-trip); stall attribution agrees with Replay's independent
   wait accounting; and the bench gate passes its own baselines while
   failing a row inflated beyond tolerance. *)

open Cgra_arch
open Cgra_core
module T = Cgra_trace.Trace
module Export = Cgra_trace.Export
module Replay = Cgra_trace.Replay
module Json = Cgra_trace.Json
module Metrics = Cgra_prof.Metrics
module Hist = Cgra_prof.Metrics.Hist
module Analyze = Cgra_prof.Analyze
module Render = Cgra_prof.Render
module Bench_gate = Cgra_prof.Bench_gate

let feq = Alcotest.float 1e-9

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ---------- Hist: quantile exactness at bucket edges ---------- *)

(* Integers 16..31 are each their own bucket lower bound (ex=5 gives
   lower = 16 + sub), so every quantile answer must be exact. *)
let test_hist_exact_at_edges () =
  let h = Hist.create () in
  for v = 16 to 31 do
    Hist.observe h (float_of_int v)
  done;
  Alcotest.(check int) "n" 16 (Hist.count h);
  Alcotest.check feq "min" 16.0 (Hist.min_value h);
  Alcotest.check feq "max" 31.0 (Hist.max_value h);
  Alcotest.check feq "sum" 376.0 (Hist.sum h);
  Alcotest.check feq "mean" 23.5 (Hist.mean h);
  (* nearest rank: p50 -> 8th smallest = 23, p90 -> 15th = 30 *)
  Alcotest.check feq "p50" 23.0 (Hist.quantile h 50.0);
  Alcotest.check feq "p90" 30.0 (Hist.quantile h 90.0);
  Alcotest.check feq "p99" 31.0 (Hist.quantile h 99.0);
  Alcotest.check feq "p100" 31.0 (Hist.quantile h 100.0);
  Alcotest.check feq "p0 clamps to rank 1" 16.0 (Hist.quantile h 0.0)

let test_hist_mid_bucket_error_bound () =
  (* A mid-bucket value reports its bucket lower bound: within the
     documented 6.25% relative error, never above the true value. *)
  let h = Hist.create () in
  Hist.observe h 16.0;
  Hist.observe h 33.0;
  let q = Hist.quantile h 100.0 in
  Alcotest.check feq "bucket lower" 32.0 q;
  Alcotest.(check bool) "under 6.25% relative error" true
    ((33.0 -. q) /. 33.0 < 0.0625);
  (* a lone observation is exact regardless of bucket: the answer clamps
     to the tracked [min, max] *)
  let one = Hist.create () in
  Hist.observe one 33.0;
  Alcotest.check feq "singleton exact via clamp" 33.0 (Hist.quantile one 50.0)

let test_hist_zero_and_negative () =
  let h = Hist.create () in
  Hist.observe h (-5.0);
  Hist.observe h 0.0;
  Hist.observe h 2.0;
  Alcotest.check feq "exact min kept" (-5.0) (Hist.min_value h);
  Alcotest.check feq "low quantile clamps to zero bucket" 0.0
    (Hist.quantile h 1.0);
  Alcotest.check feq "p100" 2.0 (Hist.quantile h 100.0)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "n" 0 (Hist.count h);
  Alcotest.check feq "mean" 0.0 (Hist.mean h);
  Alcotest.check feq "quantile" 0.0 (Hist.quantile h 50.0)

let test_hist_merge_matches_union () =
  let all = Hist.create () and a = Hist.create () and b = Hist.create () in
  List.iteri
    (fun i v ->
      Hist.observe all v;
      Hist.observe (if i mod 2 = 0 then a else b) v)
    [ 1.0; 17.0; 300.5; 4.0; 1e6; 0.0; 23.0; 23.0; 512.0 ];
  let m = Hist.merge a b in
  Alcotest.(check int) "n" (Hist.count all) (Hist.count m);
  Alcotest.check feq "sum" (Hist.sum all) (Hist.sum m);
  Alcotest.check feq "min" (Hist.min_value all) (Hist.min_value m);
  Alcotest.check feq "max" (Hist.max_value all) (Hist.max_value m);
  List.iter
    (fun p ->
      Alcotest.check feq
        (Printf.sprintf "p%g" p)
        (Hist.quantile all p) (Hist.quantile m p))
    [ 10.0; 50.0; 90.0; 99.0 ]

(* ---------- Registry: cross-domain merge determinism ---------- *)

let fill seed =
  let r = Metrics.create () in
  Metrics.counter r "requests" (float_of_int (seed * 3));
  Metrics.counter r "reshapes" 1.0;
  Metrics.gauge r (Printf.sprintf "domain%d.depth" seed) (float_of_int seed);
  for i = 0 to 9 do
    Metrics.observe r "latency" (float_of_int ((seed * 100) + (i * 16)))
  done;
  r

let test_registry_merge_determinism () =
  let a = fill 1 and b = fill 2 and c = fill 3 in
  let orders =
    [
      Metrics.merge (Metrics.merge a b) c;
      Metrics.merge a (Metrics.merge b c);
      Metrics.merge (Metrics.merge c a) b;
      Metrics.merge b (Metrics.merge c a);
    ]
  in
  let strings = List.map (fun r -> Json.to_string (Metrics.to_json r)) orders in
  match strings with
  | first :: rest ->
      List.iteri
        (fun i s ->
          Alcotest.(check string)
            (Printf.sprintf "order %d byte-identical" (i + 1))
            first s)
        rest
  | [] -> assert false

let test_registry_merge_semantics () =
  let a = fill 1 and b = fill 2 in
  let m = Metrics.merge a b in
  Alcotest.check feq "counters sum" 9.0 (Metrics.counter_value m "requests");
  Alcotest.check feq "inputs untouched" 3.0 (Metrics.counter_value a "requests");
  (* gauges are right-biased on collision *)
  let x = Metrics.create () and y = Metrics.create () in
  Metrics.gauge x "g" 1.0;
  Metrics.gauge y "g" 2.0;
  (match Json.member "gauges" (Metrics.to_json (Metrics.merge x y)) with
  | Some (Json.Obj [ ("g", Json.Num v) ]) ->
      Alcotest.check feq "right wins" 2.0 v
  | _ -> Alcotest.fail "gauges shape");
  match Metrics.hist m "latency" with
  | Some h -> Alcotest.(check int) "hist merged" 20 (Hist.count h)
  | None -> Alcotest.fail "merged histogram missing"

(* ---------- profile on a fixed-seed traced fig9-style run ---------- *)

let arch_4x4 = lazy (Option.get (Cgra.standard ~size:4 ~page_pes:4))

let suite_4x4 =
  lazy
    (match Binary.compile_suite (Lazy.force arch_4x4) with
    | Ok s -> s
    | Error e -> Alcotest.failf "compile_suite: %s" e)

let traced_events () =
  let suite = Lazy.force suite_4x4 in
  let threads = Workload.generate ~seed:0 ~n_threads:8 ~cgra_need:0.875 ~suite () in
  let trace = T.make () in
  ignore
    (Os_sim.run ~trace
       { Os_sim.suite; threads; total_pages = 4; mode = Os_sim.Multi });
  T.events trace

let report_of events =
  match Analyze.profile events with
  | Ok r -> r
  | Error e -> Alcotest.failf "profile: %s" e

let test_profile_run_header () =
  let events = traced_events () in
  let r = report_of events in
  Alcotest.(check string) "mode" "multi" r.run.mode;
  Alcotest.(check string) "policy" "halving" r.run.policy;
  Alcotest.(check int) "pages" 4 r.run.total_pages;
  Alcotest.(check int) "threads" 8 r.run.n_threads;
  Alcotest.(check int) "rows stamped in trace" 4 r.run.rows;
  Alcotest.(check int) "mem ports stamped in trace" 2 r.run.mem_ports;
  Alcotest.(check int) "event count" (List.length events) r.run.n_events;
  Alcotest.(check int) "one heat row per thread" 8 (List.length r.residents);
  Alcotest.(check bool) "geometry present -> row bus" true
    (r.row_bus <> None)

(* The report is pinned byte-for-byte: same seed, same text, same JSON —
   however many domains produced the run, live or re-imported.  If a
   rendering or analysis change is intentional, re-run
   [dune exec bin/cgra_tool.exe -- profile ...] and update the digests. *)
let golden_text_digest = "8e4e52cf0670f2f891b78eba77f44645"
let golden_json_digest = "aa3a2b8c872bf4fa693484da645b5184"

let test_profile_golden () =
  let r = report_of (traced_events ()) in
  let text = Render.text r in
  let json = Render.json_string r in
  Alcotest.(check string) "golden text" golden_text_digest
    (Digest.to_hex (Digest.string text));
  Alcotest.(check string) "golden json" golden_json_digest
    (Digest.to_hex (Digest.string json));
  (match Json.parse json with
  | Ok (Json.Obj fields) ->
      Alcotest.(check (list string)) "top-level keys sorted"
        [ "counters"; "latency"; "occupancy"; "reshapes"; "row_bus"; "run";
          "stalls" ]
        (List.map fst fields)
  | Ok _ -> Alcotest.fail "profile JSON is not an object"
  | Error e -> Alcotest.failf "profile JSON does not parse: %s" e);
  (* a fresh identical run renders byte-identically *)
  let r2 = report_of (traced_events ()) in
  Alcotest.(check string) "re-run text identical" text (Render.text r2);
  Alcotest.(check string) "re-run json identical" json (Render.json_string r2)

let test_profile_posthoc_equals_live () =
  let events = traced_events () in
  let live = report_of events in
  match Export.of_jsonl (Export.jsonl events) with
  | Error e -> Alcotest.failf "of_jsonl: %s" e
  | Ok events' ->
      let posthoc = report_of events' in
      Alcotest.(check string) "text identical" (Render.text live)
        (Render.text posthoc);
      Alcotest.(check string) "json identical" (Render.json_string live)
        (Render.json_string posthoc)

let test_stall_attribution_vs_replay () =
  let events = traced_events () in
  let r = report_of events in
  let replay_wait =
    List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Replay.wait_intervals events)
  in
  let queueing =
    List.fold_left
      (fun acc (s : Analyze.stall_attrib) -> acc +. s.queueing)
      0.0 r.stalls
  in
  Alcotest.check (Alcotest.float 1e-6)
    "total queueing = Replay's wait-interval sum" replay_wait queueing;
  List.iter
    (fun (s : Analyze.stall_attrib) ->
      Alcotest.check (Alcotest.float 1e-6)
        (Printf.sprintf "t%d components sum to total" s.thread)
        s.total
        (s.queueing +. s.reshape +. s.execution);
      Alcotest.(check bool)
        (Printf.sprintf "t%d components non-negative" s.thread)
        true
        (s.queueing >= 0.0 && s.reshape >= 0.0 && s.execution >= 0.0))
    r.stalls;
  let segments =
    List.fold_left
      (fun acc (s : Analyze.stall_attrib) -> acc + s.segments)
      0 r.stalls
  in
  Alcotest.(check int) "latency histogram counts every segment" segments
    (Hist.count r.latency_all)

let test_profile_requires_header () =
  match Analyze.profile [] with
  | Ok _ -> Alcotest.fail "profiled an empty stream"
  | Error e ->
      Alcotest.(check bool) "mentions run_begin" true
        (String.length e > 0)

(* Differential against the farm front end: each shard's busy cycles
   are accounted twice, independently — the front end sums
   (retire - dispatch) per request it routed to the shard, and the
   profiler reconstructs per-thread request->release totals from the
   shard's own trace.  Every farm request is a single-kernel thread, so
   the two sums must agree exactly, shard by shard. *)
let test_farm_busy_vs_stall_attribution () =
  let p =
    {
      Cgra_farm.Farm.default_params with
      n_requests = 40;
      offered_load = 2.0;
      seed = 7;
    }
  in
  match Cgra_farm.Farm.run ~traced:true p with
  | Error e -> Alcotest.failf "Farm.run: %s" e
  | Ok r ->
      List.iter2
        (fun (sr : Cgra_farm.Farm.shard_report) events ->
          let rep = report_of events in
          let attributed =
            List.fold_left
              (fun acc (s : Analyze.stall_attrib) -> acc +. s.total)
              0.0 rep.stalls
          in
          Alcotest.check (Alcotest.float 1e-6)
            (Printf.sprintf "shard %d: front-end busy = attributed total"
               sr.Cgra_farm.Farm.s_index)
            sr.Cgra_farm.Farm.s_busy_cycles attributed;
          Alcotest.(check int)
            (Printf.sprintf "shard %d: one attribution per served request"
               sr.Cgra_farm.Farm.s_index)
            sr.Cgra_farm.Farm.s_served
            (List.length rep.stalls))
        r.Cgra_farm.Farm.shard_reports r.Cgra_farm.Farm.shard_events

(* ---------- bench gate ---------- *)

let doc_of_string s =
  match Bench_gate.parse s with
  | Ok d -> d
  | Error e -> Alcotest.failf "Bench_gate.parse: %s" e

let baseline_json =
  {|{ "bench": "micro", "domains": 1, "unit": "ns_per_run", "results": [
      { "name": "fold sobel", "value": 1000.0, "domains": 1, "runs": 5, "spread": 4.0 },
      { "name": "compile-sobel-warm", "value": 50.0, "domains": 1, "runs": 5, "spread": 30.0 },
      { "name": "greedy transform", "value": 2000.0, "domains": 1, "runs": 5, "spread": 2.0 } ] }|}

let current ?(fold = 1100.0) ?(warm = 120.0) ?(greedy = 1900.0) () =
  doc_of_string
    (Printf.sprintf
       {|{ "bench": "micro", "domains": 1, "unit": "ns_per_run", "results": [
           { "name": "fold sobel", "value": %f, "domains": 1, "runs": 5, "spread": 1.0 },
           { "name": "compile-sobel-warm", "value": %f, "domains": 1, "runs": 5, "spread": 1.0 },
           { "name": "greedy transform", "value": %f, "domains": 1, "runs": 5, "spread": 1.0 } ] }|}
       fold warm greedy)

let test_gate_tolerances () =
  Alcotest.check feq "warm rows jitter hardest" 4.0
    (Bench_gate.tolerance "compile-sobel-warm");
  Alcotest.check feq "suite warm too" 4.0
    (Bench_gate.tolerance "compile-suite-warm 8x8");
  Alcotest.check feq "default" 2.0 (Bench_gate.tolerance "fold sobel")

let test_gate_passes_in_tolerance () =
  let baseline = doc_of_string baseline_json in
  (* within tolerance, an improvement, and a warm row at 2.4x (under its
     4x allowance) all pass *)
  let outcomes = Bench_gate.check ~baseline ~current:(current ()) in
  Alcotest.(check int) "no failures" 0 (Bench_gate.failures outcomes);
  Alcotest.(check int) "one outcome per baseline row" 3 (List.length outcomes);
  (* baselines vs themselves is the --check mode invariant *)
  Alcotest.(check int) "self-check passes" 0
    (Bench_gate.failures (Bench_gate.check ~baseline ~current:baseline))

let test_gate_fails_inflated_row () =
  let baseline = doc_of_string baseline_json in
  let outcomes =
    Bench_gate.check ~baseline ~current:(current ~fold:2100.0 ())
  in
  Alcotest.(check int) "exactly the inflated row fails" 1
    (Bench_gate.failures outcomes);
  let bad = List.find (fun (o : Bench_gate.outcome) -> not o.ok) outcomes in
  Alcotest.(check string) "the 2.1x row" "fold sobel" bad.o_name;
  let rendered = Bench_gate.render ~unit_:"ns_per_run" outcomes in
  Alcotest.(check bool) "render says FAIL" true (contains ~sub:"FAIL" rendered);
  (* the same 2.1x inflation on a warm row is within its 4x tolerance *)
  Alcotest.(check int) "warm row absorbs 2.4x" 0
    (Bench_gate.failures
       (Bench_gate.check ~baseline ~current:(current ~warm:120.0 ())))

let test_gate_missing_row_fails () =
  let baseline = doc_of_string baseline_json in
  let current =
    doc_of_string
      {|{ "bench": "micro", "domains": 1, "unit": "ns_per_run", "results": [
          { "name": "fold sobel", "value": 1000.0 } ] }|}
  in
  let outcomes = Bench_gate.check ~baseline ~current in
  Alcotest.(check int) "two rows missing" 2 (Bench_gate.failures outcomes);
  List.iter
    (fun (o : Bench_gate.outcome) ->
      if o.o_name <> "fold sobel" then
        Alcotest.(check bool) (o.o_name ^ " missing -> fail") false o.ok)
    outcomes

let test_bus_pressure_exact_counts () =
  (* the static analyzer recounts the mapping's memory ops exactly: cell
     sums equal the placed load/store count, no cell exceeds the row-bus
     budget (the mapping validated), and both renderings are stable *)
  let a = Lazy.force arch_4x4 in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let m =
    match Cgra_mapper.Scheduler.map Cgra_mapper.Scheduler.Paged a k.graph with
    | Ok m -> m
    | Error e -> Alcotest.failf "map: %s" e
  in
  let b = Analyze.bus_pressure m in
  Alcotest.(check string) "kernel name" "sobel" b.kernel;
  Alcotest.(check int) "ii" m.ii b.ii;
  Alcotest.(check int) "mem ops counted"
    (Cgra_dfg.Graph.mem_node_count m.graph) b.mem_ops;
  let sum =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0 b.demand
  in
  Alcotest.(check int) "cells sum to mem ops" b.mem_ops sum;
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun s d ->
          if d > b.capacity then
            Alcotest.failf "row %d slot %d: %d > capacity %d" r s d b.capacity)
        row)
    b.demand;
  (match Json.parse (Render.bus_pressure_json_string b) with
  | Ok (Json.Obj fields) ->
      Alcotest.(check (list string)) "json keys sorted"
        [ "capacity"; "demand"; "headroom"; "ii"; "kernel"; "mem_ops"; "rows";
          "saturated" ]
        (List.map fst fields)
  | Ok _ -> Alcotest.fail "bus-pressure JSON is not an object"
  | Error e -> Alcotest.failf "bus-pressure JSON does not parse: %s" e);
  let text = Render.bus_pressure_text b in
  Alcotest.(check bool) "text carries the header" true
    (contains ~sub:"bus pressure: sobel" text);
  Alcotest.(check string) "re-render identical" text
    (Render.bus_pressure_text (Analyze.bus_pressure m))

let test_gate_fig8_higher_is_better () =
  (* fig8 rows are quality scores: improvements pass, any real drop
     fails — the inverse of the wall-clock direction *)
  Alcotest.(check bool) "fig8 prefix flips direction" true
    (Bench_gate.higher_is_better "fig8 4x4 p4 geomean");
  Alcotest.(check bool) "wall rows unchanged" false
    (Bench_gate.higher_is_better "fold sobel");
  let baseline =
    doc_of_string
      {|{ "bench": "fig8", "domains": 1, "unit": "percent", "results": [
          { "name": "fig8 4x4 p4 geomean", "value": 88.159 } ] }|}
  in
  let current v =
    doc_of_string
      (Printf.sprintf
         {|{ "bench": "fig8", "domains": 1, "unit": "percent", "results": [
             { "name": "fig8 4x4 p4 geomean", "value": %f } ] }|}
         v)
  in
  let failures v =
    Bench_gate.failures (Bench_gate.check ~baseline ~current:(current v))
  in
  Alcotest.(check int) "self passes" 0 (failures 88.159);
  Alcotest.(check int) "improvement passes" 0 (failures 95.0);
  Alcotest.(check int) "formatting epsilon absorbed" 0 (failures 88.12);
  Alcotest.(check int) "quality drop fails" 1 (failures 82.0);
  (* the drop would have sailed through the wall-clock direction (82 <=
     88 * 2.0), so this asserts the direction actually flipped *)
  let rendered =
    Bench_gate.render ~unit_:"percent"
      (Bench_gate.check ~baseline ~current:(current 82.0))
  in
  Alcotest.(check bool) "render marks the drop" true
    (contains ~sub:"FAIL" rendered);
  Alcotest.(check bool) "render shows the flipped budget" true
    (contains ~sub:">=base" rendered)

let test_gate_farm_deterministic () =
  (* farm rows are virtual-clock outputs: flat-epsilon gating, direction
     by row — throughput (req/) up, latency quantiles down *)
  Alcotest.(check bool) "farm throughput gates upward" true
    (Bench_gate.higher_is_better "farm load1.0 req/kcycle");
  Alcotest.(check bool) "farm latency gates downward" false
    (Bench_gate.higher_is_better "farm load1.0 latency p99");
  Alcotest.(check bool) "farm rows are deterministic" true
    (Bench_gate.deterministic "farm load1.0 latency p99");
  let baseline =
    doc_of_string
      {|{ "bench": "farm", "domains": 1, "unit": "mixed", "results": [
          { "name": "farm load1.0 req/kcycle", "value": 13.856 },
          { "name": "farm load1.0 latency p99", "value": 464.0 } ] }|}
  in
  let current tput p99 =
    doc_of_string
      (Printf.sprintf
         {|{ "bench": "farm", "domains": 1, "unit": "mixed", "results": [
             { "name": "farm load1.0 req/kcycle", "value": %f },
             { "name": "farm load1.0 latency p99", "value": %f } ] }|}
         tput p99)
  in
  let failures tput p99 =
    Bench_gate.failures (Bench_gate.check ~baseline ~current:(current tput p99))
  in
  Alcotest.(check int) "self passes" 0 (failures 13.856 464.0);
  Alcotest.(check int) "improvements pass" 0 (failures 15.0 400.0);
  Alcotest.(check int) "%.3f rounding absorbed" 0 (failures 13.8555 464.0005);
  Alcotest.(check int) "throughput drop fails" 1 (failures 13.0 464.0);
  (* a 1-cycle p99 regression is far inside any wall-clock tolerance but
     must fail the deterministic row *)
  Alcotest.(check int) "latency regression fails" 1 (failures 13.856 465.0);
  let rendered =
    Bench_gate.render ~unit_:"mixed"
      (Bench_gate.check ~baseline ~current:(current 13.856 465.0))
  in
  Alcotest.(check bool) "render shows the downward budget" true
    (contains ~sub:"<=base" rendered)

let test_gate_farm_scaling () =
  (* the wall(2N)/wall(N) row is a measurement, held to a fixed ceiling
     whatever its baseline: ~2 is linear work, ~4 quadratic *)
  let name = "farm-big scaling wall(2N)/wall(N)" in
  Alcotest.(check bool) "scaling row" true (Bench_gate.scaling name);
  Alcotest.(check bool) "not a deterministic row" false
    (Bench_gate.deterministic name);
  Alcotest.(check bool) "sim-rate rows are not scaling rows" false
    (Bench_gate.scaling "farm-big sim-rate -j1");
  let doc v =
    doc_of_string
      (Printf.sprintf
         {|{ "bench": "farm-big", "domains": 1, "unit": "mixed", "results": [
             { "name": %S, "value": %f } ] }|}
         name v)
  in
  let failures ~baseline v =
    Bench_gate.failures
      (Bench_gate.check ~baseline:(doc baseline) ~current:(doc v))
  in
  Alcotest.(check int) "self passes" 0 (failures ~baseline:1.7 1.7);
  Alcotest.(check int) "worse than baseline, under the bound, passes" 0
    (failures ~baseline:1.7 2.4);
  Alcotest.(check int) "above the bound fails" 1 (failures ~baseline:1.7 2.6);
  Alcotest.(check int) "a lax baseline does not loosen the bound" 1
    (failures ~baseline:4.0 3.9);
  Alcotest.(check bool) "render shows the ceiling" true
    (contains ~sub:"<=2.50x"
       (Bench_gate.render ~unit_:"mixed"
          (Bench_gate.check ~baseline:(doc 1.7) ~current:(doc 2.6))))

let test_gate_emit_round_trip () =
  (* the writer's output parses back to the same doc: strings escaped
     (quote, backslash, tab), values at %.3f, one row per line *)
  let row name value spread : Bench_gate.row =
    { name; value; domains = 2; runs = 5; spread }
  in
  let doc : Bench_gate.doc =
    {
      bench = "farm-big";
      unit_ = "req/s \"wall\"";
      rows =
        [ row "odd \"name\" with \\ and \t tab" 12.345 2.5;
          row "plain" 7.0 0.0 ];
    }
  in
  let text =
    Bench_gate.emit ~domains:1 ~extras:[ ("seed", Json.num_of_int 7) ] doc
  in
  Alcotest.(check bool) "no raw tab byte" false (String.contains text '\t');
  Alcotest.(check bool) "values at %.3f" true (contains ~sub:"\"value\": 7.000," text);
  Alcotest.(check bool) "extras recorded" true (contains ~sub:"\"seed\": 7," text);
  Alcotest.(check int) "one line per row" 2
    (List.length
       (List.filter
          (fun l -> contains ~sub:"\"name\"" l && contains ~sub:"\"spread\"" l)
          (String.split_on_char '\n' text)));
  let back = doc_of_string text in
  Alcotest.(check string) "bench" doc.bench back.bench;
  Alcotest.(check string) "unit" doc.unit_ back.unit_;
  Alcotest.(check bool) "rows" true (doc.rows = back.rows);
  Alcotest.check_raises "non-finite value"
    (Invalid_argument "Bench_gate.emit: non-finite row plain") (fun () ->
      ignore
        (Bench_gate.emit ~domains:1 ~extras:[]
           { doc with rows = [ row "plain" Float.nan 0.0 ] }))

let test_gate_wrong_family () =
  (* a baseline filed under another family never passes: the rows fail
     even when their names and values match, and the loader refuses it *)
  let micro = doc_of_string baseline_json in
  let fig9 = { micro with bench = "fig9" } in
  Alcotest.(check int) "every row fails" (List.length micro.rows)
    (Bench_gate.failures (Bench_gate.check ~baseline:micro ~current:fig9));
  Alcotest.(check string) "file name" "BENCH_farm_big.json"
    (Bench_gate.file "farm-big");
  let path = Filename.temp_file "bench-gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc baseline_json);
      (match Bench_gate.load ~bench:"micro" path with
      | Ok d -> Alcotest.(check int) "right family loads" 3 (List.length d.rows)
      | Error e -> Alcotest.failf "load: %s" e);
      match Bench_gate.load ~bench:"fig9" path with
      | Ok _ -> Alcotest.fail "a micro file loaded as fig9"
      | Error e ->
          Alcotest.(check bool) "error names the family" true
            (contains ~sub:"\"micro\"" e))

let test_gate_work_rows_exact () =
  (* the committed Fig. 8 work rows (exact sequential mapper counts)
     pass against themselves, and raising any one of them by a single
     unit of work fails exactly that row; lowering it passes *)
  Alcotest.(check bool) "work prefix" true
    (Bench_gate.work "work fig8 grid route searches");
  Alcotest.(check bool) "quality row is not work" false
    (Bench_gate.work "fig8 4x4 p4 geomean");
  let committed =
    match Bench_gate.load ~bench:"fig8" "../BENCH_fig8.json" with
    | Ok d -> d
    | Error e -> Alcotest.failf "committed BENCH_fig8.json: %s" e
  in
  let work =
    List.filter (fun (r : Bench_gate.row) -> Bench_gate.work r.name) committed.rows
  in
  Alcotest.(check int) "four work rows" 4 (List.length work);
  Alcotest.(check int) "committed rows pass" 0
    (Bench_gate.failures (Bench_gate.check ~baseline:committed ~current:committed));
  let moved (r : Bench_gate.row) delta =
    {
      committed with
      rows =
        List.map
          (fun (x : Bench_gate.row) ->
            if x.name = r.name then { x with value = x.value +. delta } else x)
          committed.rows;
    }
  in
  List.iter
    (fun (r : Bench_gate.row) ->
      Alcotest.check feq (r.name ^ ": no tolerance") 1.0 (Bench_gate.tolerance r.name);
      let outcomes = Bench_gate.check ~baseline:committed ~current:(moved r 1.0) in
      (match List.filter (fun (o : Bench_gate.outcome) -> not o.ok) outcomes with
      | [ o ] -> Alcotest.(check string) "the raised row fails" r.name o.o_name
      | l -> Alcotest.failf "%s + 1: %d rows failed, expected 1" r.name (List.length l));
      Alcotest.(check bool) "render says FAIL" true
        (contains ~sub:"FAIL" (Bench_gate.render ~unit_:"count" outcomes));
      Alcotest.(check int) (r.name ^ " - 1 passes") 0
        (Bench_gate.failures
           (Bench_gate.check ~baseline:committed ~current:(moved r (-1.0)))))
    work

let test_gate_parses_old_format () =
  (* rows written before min-of-N: no runs/spread/per-row domains *)
  let d =
    doc_of_string
      {|{ "bench": "micro", "domains": 4, "unit": "ns_per_run", "results": [
          { "name": "x", "value": 10.0 } ] }|}
  in
  match d.rows with
  | [ r ] ->
      Alcotest.(check int) "runs defaults" 1 r.runs;
      Alcotest.check feq "spread defaults" 0.0 r.spread;
      Alcotest.(check int) "domains from doc" 4 r.domains
  | _ -> Alcotest.fail "row count"

let () =
  Alcotest.run "prof"
    [
      ( "hist",
        [
          Alcotest.test_case "exact at bucket edges" `Quick
            test_hist_exact_at_edges;
          Alcotest.test_case "mid-bucket error bound" `Quick
            test_hist_mid_bucket_error_bound;
          Alcotest.test_case "zero and negative clamp" `Quick
            test_hist_zero_and_negative;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "merge matches union" `Quick
            test_hist_merge_matches_union;
        ] );
      ( "registry",
        [
          Alcotest.test_case "merge order-independent" `Quick
            test_registry_merge_determinism;
          Alcotest.test_case "merge semantics" `Quick
            test_registry_merge_semantics;
        ] );
      ( "profile",
        [
          Alcotest.test_case "run header" `Quick test_profile_run_header;
          Alcotest.test_case "golden report digests" `Quick
            test_profile_golden;
          Alcotest.test_case "post-hoc JSONL = live" `Quick
            test_profile_posthoc_equals_live;
          Alcotest.test_case "stall attribution vs replay" `Quick
            test_stall_attribution_vs_replay;
          Alcotest.test_case "empty stream rejected" `Quick
            test_profile_requires_header;
          Alcotest.test_case "bus pressure exact counts" `Quick
            test_bus_pressure_exact_counts;
          Alcotest.test_case "farm busy cycles vs stall attribution" `Quick
            test_farm_busy_vs_stall_attribution;
        ] );
      ( "bench gate",
        [
          Alcotest.test_case "tolerances" `Quick test_gate_tolerances;
          Alcotest.test_case "passes in tolerance" `Quick
            test_gate_passes_in_tolerance;
          Alcotest.test_case "fails inflated row" `Quick
            test_gate_fails_inflated_row;
          Alcotest.test_case "missing row fails" `Quick
            test_gate_missing_row_fails;
          Alcotest.test_case "fig8 rows gate higher-is-better" `Quick
            test_gate_fig8_higher_is_better;
          Alcotest.test_case "farm rows gate deterministically" `Quick
            test_gate_farm_deterministic;
          Alcotest.test_case "farm scaling ceiling" `Quick
            test_gate_farm_scaling;
          Alcotest.test_case "work rows gate exactly" `Quick
            test_gate_work_rows_exact;
          Alcotest.test_case "old baseline format" `Quick
            test_gate_parses_old_format;
          Alcotest.test_case "writer round-trip" `Quick
            test_gate_emit_round_trip;
          Alcotest.test_case "wrong family rejected" `Quick
            test_gate_wrong_family;
        ] );
    ]
