open Cgra_core

let run ~n ~m ~ii_p ~iterations =
  match Greedy.run ~n ~m ~ii_p ~iterations with
  | Ok r -> r
  | Error e -> Alcotest.failf "Greedy.run: %s" e

(* every (col, time) slot holds at most one page-instance, columns are in
   range, and the three-case audit found no dependency violations *)
let check_invariants (r : Greedy.result_t) =
  let seen = Hashtbl.create 256 in
  Array.iteri
    (fun step row ->
      Array.iteri
        (fun page (p : Greedy.placement) ->
          Alcotest.(check bool)
            (Printf.sprintf "col in range (step %d page %d)" step page)
            true
            (p.col >= 0 && p.col < r.m);
          Alcotest.(check bool) "time nonnegative" true (p.time >= 0);
          Alcotest.(check bool)
            (Printf.sprintf "slot free (%d,%d)" p.col p.time)
            false
            (Hashtbl.mem seen (p.col, p.time));
          Hashtbl.add seen (p.col, p.time) ())
        row)
    r.place

let test_invariants_sweep () =
  List.iter
    (fun (n, m, ii) ->
      let r = run ~n ~m ~ii_p:ii ~iterations:12 in
      check_invariants r)
    [
      (4, 4, 1); (4, 3, 1); (4, 2, 1); (4, 1, 1); (6, 5, 1); (6, 4, 2); (6, 3, 2);
      (8, 7, 2); (8, 4, 2); (8, 2, 3); (16, 8, 2); (16, 5, 1); (9, 4, 2);
    ]

let test_no_dep_violations_common_cases () =
  (* the paper's cases hold cleanly when M divides N or is close to it *)
  List.iter
    (fun (n, m, ii) ->
      let r = run ~n ~m ~ii_p:ii ~iterations:20 in
      Alcotest.(check int)
        (Printf.sprintf "N=%d M=%d: no violations" n m)
        0 r.dep_violations)
    [ (4, 4, 1); (4, 2, 1); (4, 1, 2); (6, 3, 2); (6, 2, 1); (8, 4, 2); (8, 2, 1);
      (16, 8, 1); (16, 4, 2) ]

let test_case_counts_cover_placements () =
  let n = 6 and m = 4 and ii = 2 and iterations = 15 in
  let r = run ~n ~m ~ii_p:ii ~iterations in
  let placements_after_init = n * ((iterations * ii) - 1) in
  Alcotest.(check int) "cases partition the fill phase" placements_after_init
    (r.case_two_hop + r.case_one_hop + r.case_zero_hop + r.fallbacks)

let test_steady_ii_optimal_divisors () =
  (* measured steady-state II equals the fold optimum when M | N *)
  List.iter
    (fun (n, m, ii) ->
      let r = run ~n ~m ~ii_p:ii ~iterations:40 in
      let optimal = Transform.ii_q ~ii_p:ii ~n_used:n ~target_pages:m in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d M=%d ii=%d: steady %.2f vs optimal %d" n m ii r.steady_ii
           optimal)
        true
        (Float.abs (r.steady_ii -. float_of_int optimal) < 0.01))
    [ (4, 4, 1); (4, 2, 1); (4, 1, 1); (6, 3, 2); (6, 2, 1); (8, 4, 2); (8, 2, 2);
      (8, 1, 1); (16, 8, 1); (16, 4, 1) ]

let test_steady_ii_near_optimal_others () =
  (* for non-divisors the greedy algorithm stays within 2x of optimal *)
  List.iter
    (fun (n, m, ii) ->
      let r = run ~n ~m ~ii_p:ii ~iterations:40 in
      let optimal = float_of_int (Transform.ii_q ~ii_p:ii ~n_used:n ~target_pages:m) in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d M=%d: steady %.2f <= 2x optimal %.0f" n m r.steady_ii
           optimal)
        true
        (r.steady_ii <= (2.0 *. optimal) +. 0.01))
    [ (6, 5, 1); (6, 4, 1); (8, 7, 1); (8, 5, 2); (8, 3, 1); (16, 7, 1) ]

let test_fig7_configuration () =
  (* N=6 -> M=5 with II=1, Fig. 7's example: one tail page *)
  let r = run ~n:6 ~m:5 ~ii_p:1 ~iterations:30 in
  check_invariants r;
  (* init row 0 holds 5 pages at time 0, the tail at a later time in an
     edge column *)
  let first = r.place.(0) in
  let at_time_0 = Array.to_list first |> List.filter (fun (p : Greedy.placement) -> p.time = 0) in
  Alcotest.(check int) "five pages in the first row" 5 (List.length at_time_0);
  let tail =
    Array.to_list first |> List.find (fun (p : Greedy.placement) -> p.time > 0)
  in
  Alcotest.(check bool) "tail in an edge column" true (tail.col = 0 || tail.col = 4);
  (* all three PlacePage cases appear, as in the figure *)
  Alcotest.(check bool) "two-hop used" true (r.case_two_hop > 0);
  Alcotest.(check bool) "one-hop used" true (r.case_one_hop > 0);
  Alcotest.(check bool) "zero-hop used" true (r.case_zero_hop > 0)

let test_m1_serializes_pages () =
  let r = run ~n:4 ~m:1 ~ii_p:1 ~iterations:10 in
  Alcotest.(check int) "no violations" 0 r.dep_violations;
  (* single column: pages execute strictly in sequence *)
  Alcotest.(check bool) "steady ii = N" true (Float.abs (r.steady_ii -. 4.0) < 0.01)

let test_m_equals_n_identity_rate () =
  let r = run ~n:8 ~m:8 ~ii_p:3 ~iterations:30 in
  Alcotest.(check bool) "full fabric keeps II" true
    (Float.abs (r.steady_ii -. 3.0) < 0.01)

let test_invalid_args () =
  (* bad parameters come back as [Error] naming the value, never as an
     exception *)
  let expect fragment ~n ~m ~ii_p ~iterations =
    match Greedy.run ~n ~m ~ii_p ~iterations with
    | Ok _ -> Alcotest.failf "N=%d M=%d II=%d K=%d: expected Error" n m ii_p iterations
    | Error e ->
        let has sub =
          let k = String.length sub in
          let rec go i = i + k <= String.length e && (String.sub e i k = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (Printf.sprintf "%S names %S" e fragment) true
          (has "greedy: " && has fragment)
  in
  expect "M = 5" ~n:4 ~m:5 ~ii_p:1 ~iterations:4;
  expect "M = 9" ~n:4 ~m:9 ~ii_p:1 ~iterations:20;
  expect "M = 0" ~n:4 ~m:0 ~ii_p:1 ~iterations:4;
  expect "M = -3" ~n:4 ~m:(-3) ~ii_p:1 ~iterations:4;
  expect "II_p" ~n:4 ~m:2 ~ii_p:0 ~iterations:4;
  expect "II_p" ~n:4 ~m:2 ~ii_p:(-1) ~iterations:4;
  expect "iterations" ~n:4 ~m:2 ~ii_p:1 ~iterations:1;
  expect "iterations" ~n:4 ~m:2 ~ii_p:1 ~iterations:min_int;
  (* the boundary values themselves are accepted *)
  ignore (run ~n:4 ~m:4 ~ii_p:1 ~iterations:2);
  ignore (run ~n:1 ~m:1 ~ii_p:1 ~iterations:2)

let test_deterministic () =
  let a = run ~n:6 ~m:4 ~ii_p:2 ~iterations:10 in
  let b = run ~n:6 ~m:4 ~ii_p:2 ~iterations:10 in
  Alcotest.(check bool) "same placements" true (a.place = b.place)

let prop_greedy_constraints =
  QCheck.Test.make ~name:"greedy keeps columns within one hop of dependencies"
    ~count:60
    QCheck.(triple (int_range 2 12) (int_range 1 12) (int_range 1 3))
    (fun (n, m, ii) ->
      QCheck.assume (m <= n);
      let r = run ~n ~m ~ii_p:ii ~iterations:8 in
      (* re-audit every fill placement *)
      let ok = ref true in
      for step = 1 to (8 * ii) - 1 do
        for page = 0 to n - 1 do
          let p = r.place.(step).(page) in
          let d1 = r.place.(step - 1).(((page - 1) + n) mod n) in
          let d2 = r.place.(step - 1).(page) in
          if r.dep_violations = 0 then
            if
              abs (p.col - d1.col) > 1
              || abs (p.col - d2.col) > 1
              || p.time <= d1.time
              || p.time <= d2.time
            then ok := false
        done
      done;
      !ok)

let prop_greedy_no_collisions =
  QCheck.Test.make ~name:"greedy never collides slots" ~count:60
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 1 3))
    (fun (n, m, ii) ->
      QCheck.assume (m <= n);
      let r = run ~n ~m ~ii_p:ii ~iterations:6 in
      let seen = Hashtbl.create 128 in
      Array.for_all
        (fun row ->
          Array.for_all
            (fun (p : Greedy.placement) ->
              if Hashtbl.mem seen (p.col, p.time) then false
              else begin
                Hashtbl.add seen (p.col, p.time) ();
                true
              end)
            row)
        r.place)

let () =
  Alcotest.run "greedy"
    [
      ( "algorithm-1",
        [
          Alcotest.test_case "invariants sweep" `Quick test_invariants_sweep;
          Alcotest.test_case "no violations in common cases" `Quick
            test_no_dep_violations_common_cases;
          Alcotest.test_case "case counts partition" `Quick
            test_case_counts_cover_placements;
          Alcotest.test_case "steady II optimal for divisors" `Quick
            test_steady_ii_optimal_divisors;
          Alcotest.test_case "steady II near-optimal otherwise" `Quick
            test_steady_ii_near_optimal_others;
          Alcotest.test_case "Fig. 7 configuration" `Quick test_fig7_configuration;
          Alcotest.test_case "M=1 serializes" `Quick test_m1_serializes_pages;
          Alcotest.test_case "M=N keeps II" `Quick test_m_equals_n_identity_rate;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_greedy_constraints;
          QCheck_alcotest.to_alcotest prop_greedy_no_collisions;
        ] );
    ]
