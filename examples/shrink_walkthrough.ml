(* Walkthrough of the two PageMaster transformations, reproducing the
   paper's Fig. 6 (fold to one page, with mirroring) and Fig. 7 (greedy
   Algorithm 1, N=6 pages onto M=5 columns).

   Run with:  dune exec examples/shrink_walkthrough.exe *)

open Cgra_arch
open Cgra_mapper
open Cgra_core

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* ----- Fig. 6: fold a multi-page schedule onto one page ----- *)

let fig6 () =
  rule "Fig. 6 - shrinking a schedule to one page (fold + mirroring)";
  let arch = Option.get (Cgra.standard ~size:4 ~page_pes:4) in
  let kernel = Cgra_kernels.Kernels.find_exn "laplace" in
  let m =
    match Scheduler.map Scheduler.Paged arch kernel.graph with
    | Ok m -> m
    | Error e -> failwith e
  in
  Printf.printf "laplace compiled for the whole CGRA: II=%d over %d pages\n" m.ii
    (Mapping.n_pages_used m);
  Format.printf "@.placement, one grid per modulo slot (node ids; r = routing PE):@.%a"
    Mapping.pp m;
  let sh = Result.get_ok (Transform.fold ~target_pages:1 m) in
  Printf.printf
    "\nafter PageMaster fold to page 0: II=%d (= %d x %d), mirrorings applied:\n"
    sh.mapping.ii m.ii sh.s;
  Array.iteri
    (fun n o -> Format.printf "  page %d: %a@." n Orient.pp o)
    sh.orientations;
  Format.printf "@.the same operations, stacked in time on one 2x2 tile:@.%a"
    Mapping.pp sh.mapping;
  let mem = Cgra_kernels.Kernels.init_memory kernel in
  match Cgra_sim.Check.against_oracle sh.mapping mem ~iterations:40 with
  | Ok () -> print_endline "cycle-accurate check: bit-exact vs the sequential loop"
  | Error es -> List.iter print_endline es

(* ----- Fig. 7: the greedy Algorithm 1, N=6 -> M=5 ----- *)

let fig7 () =
  rule "Fig. 7 - greedy Algorithm 1, six ring pages onto five columns";
  let r = Result.get_ok (Greedy.run ~n:6 ~m:5 ~ii_p:1 ~iterations:24) in
  (* draw the first few time rows: which source page sits in which column *)
  let max_time = 6 in
  let grid = Array.make_matrix (max_time + 1) 5 "." in
  Array.iteri
    (fun step row ->
      Array.iteri
        (fun page (p : Greedy.placement) ->
          if p.time <= max_time then
            grid.(p.time).(p.col) <- Printf.sprintf "p%d@%d" page step)
        row)
    r.place;
  print_endline "time  col0    col1    col2    col3    col4   (pX@s = page X, step s)";
  Array.iteri
    (fun t row ->
      Printf.printf "%4d  " t;
      Array.iter (fun c -> Printf.printf "%-8s" c) row;
      print_newline ())
    grid;
  Printf.printf
    "\nplacement cases used: two-hop %d, one-hop %d, zero-hop (tails) %d, fallbacks %d\n"
    r.case_two_hop r.case_one_hop r.case_zero_hop r.fallbacks;
  Printf.printf "dependency violations: %d\n" r.dep_violations;
  Printf.printf "steady-state II: %.2f per kernel iteration (fold optimum: %d)\n"
    r.steady_ii
    (Transform.ii_q ~ii_p:1 ~n_used:6 ~target_pages:5)

(* ----- the halving ladder the runtime actually uses ----- *)

let ladder () =
  rule "The runtime's halving ladder (sobel on 8x8, 16 pages of 4 PEs)";
  let arch = Option.get (Cgra.standard ~size:8 ~page_pes:4) in
  let kernel = Cgra_kernels.Kernels.find_exn "sobel" in
  let m =
    match Scheduler.map Scheduler.Paged arch kernel.graph with
    | Ok m -> m
    | Error e -> failwith e
  in
  let n = Mapping.n_pages_used m in
  Printf.printf "compiled: II=%d on %d pages\n" m.ii n;
  let rec go target =
    if target >= 1 then begin
      let sh = Result.get_ok (Transform.fold ~target_pages:target m) in
      Printf.printf "  -> %d page(s): II=%d (slowdown x%d), PE-exact %b\n" sh.m_eff
        sh.mapping.ii sh.s sh.pe_exact;
      go (target / 2)
    end
  in
  go n

let () =
  fig6 ();
  fig7 ();
  ladder ()
