open Cgra_arch
open Cgra_mapper
open Cgra_core

let arch size page_pes = Option.get (Cgra.standard ~size ~page_pes)

let paged_mapping ?(size = 4) ?(page_pes = 4) name =
  let k = Cgra_kernels.Kernels.find_exn name in
  match Scheduler.map Paged (arch size page_pes) k.graph with
  | Ok m -> m
  | Error e -> Alcotest.failf "mapping %s failed: %s" name e

let fold_ok ?base_page ~target_pages m =
  match Transform.fold ?base_page ~target_pages m with
  | Ok sh -> sh
  | Error e -> Alcotest.failf "fold failed: %s" e

let assert_valid ?(check_mem = false) m =
  match Mapping.validate ~check_mem m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)

(* ---------- ii_q formula ---------- *)

let test_ii_q () =
  Alcotest.(check int) "no shrink" 3 (Transform.ii_q ~ii_p:3 ~n_used:4 ~target_pages:4);
  Alcotest.(check int) "halve" 6 (Transform.ii_q ~ii_p:3 ~n_used:4 ~target_pages:2);
  Alcotest.(check int) "to one" 12 (Transform.ii_q ~ii_p:3 ~n_used:4 ~target_pages:1);
  Alcotest.(check int) "non-divisor ceil" 6 (Transform.ii_q ~ii_p:3 ~n_used:3 ~target_pages:2);
  Alcotest.(check int) "target beyond use" 3 (Transform.ii_q ~ii_p:3 ~n_used:2 ~target_pages:8)

(* ---------- fold mechanics ---------- *)

let test_fold_errors () =
  let m = paged_mapping "mpeg" in
  (match Transform.fold ~target_pages:0 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "target 0 accepted");
  (match Transform.fold ~base_page:3 ~target_pages:4 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-fabric range accepted");
  let base = { m with Mapping.paged = false } in
  match Transform.fold ~target_pages:1 base with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unpaged source accepted"

let test_fold_identity_when_target_covers () =
  let m = paged_mapping "laplace" in
  let n = Mapping.n_pages_used m in
  let sh = fold_ok ~target_pages:n m in
  Alcotest.(check int) "s = 1" 1 sh.s;
  Alcotest.(check int) "same ii" m.ii sh.mapping.ii;
  Alcotest.(check bool) "pe exact" true sh.pe_exact;
  assert_valid sh.mapping

let test_fold_ii_matches_formula () =
  List.iter
    (fun name ->
      let m = paged_mapping name in
      let n = Mapping.n_pages_used m in
      for target = 1 to n do
        let sh = fold_ok ~target_pages:target m in
        Alcotest.(check int)
          (Printf.sprintf "%s to %d pages" name target)
          (Transform.ii_q ~ii_p:m.ii ~n_used:n ~target_pages:target)
          sh.mapping.ii
      done)
    Cgra_kernels.Kernels.names

let test_fold_whole_ladder_validates () =
  List.iter
    (fun name ->
      let m = paged_mapping name in
      let rec ladder target =
        if target >= 1 then begin
          let sh = fold_ok ~target_pages:target m in
          if sh.pe_exact then assert_valid sh.mapping;
          ladder (target / 2)
        end
      in
      ladder (Mapping.n_pages_used m))
    Cgra_kernels.Kernels.names

let test_fold_square_tiles_always_exact () =
  (* 2x2 pages admit the full dihedral group: every shrink is PE-exact *)
  List.iter
    (fun name ->
      let m = paged_mapping ~size:4 ~page_pes:4 name in
      for target = 1 to Mapping.n_pages_used m do
        let sh = fold_ok ~target_pages:target m in
        Alcotest.(check bool)
          (Printf.sprintf "%s target %d exact" name target)
          true sh.pe_exact
      done)
    Cgra_kernels.Kernels.names

let test_fold_to_one_page_always_exact () =
  (* Fig. 6 semantics: folding onto a single page never needs rotations *)
  List.iter
    (fun (size, page_pes) ->
      List.iter
        (fun name ->
          let m = paged_mapping ~size ~page_pes name in
          let sh = fold_ok ~target_pages:1 m in
          Alcotest.(check bool) (name ^ " m1 exact") true sh.pe_exact;
          assert_valid sh.mapping)
        Cgra_kernels.Kernels.names)
    [ (4, 2); (4, 4); (6, 8); (8, 4) ]

let test_fold_exact_only_when_valid () =
  (* regression: at seed 3, sobel on 6x6 with 8-PE pages folds to one
     page with an exact embedding, but the stretched lifetimes need 17
     registers on a 16-register PE.  Such a fold is not PE-exact. *)
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let m =
    match Scheduler.map ~seed:3 Paged (arch 6 8) k.graph with
    | Ok m -> m
    | Error e -> Alcotest.failf "mapping sobel failed: %s" e
  in
  let sh = fold_ok ~target_pages:1 m in
  Alcotest.(check bool) "folded schedule overflows a register file" true
    (Result.is_error (Mapping.validate ~check_mem:false sh.mapping));
  Alcotest.(check bool) "not PE-exact" false sh.pe_exact

let test_fold_stays_in_target_range () =
  let m = paged_mapping "swim" in
  let sh = fold_ok ~base_page:1 ~target_pages:2 m in
  let pages = m.Mapping.arch.Cgra.pages in
  Array.iter
    (fun pl ->
      match pl with
      | Some (p : Mapping.placement) ->
          let pg = Option.get (Page.page_of_pe pages p.pe) in
          Alcotest.(check bool) "in [1,3)" true (pg >= 1 && pg < 3)
      | None -> ())
    sh.mapping.Mapping.placements

let test_fold_base_page_relocation_valid () =
  let m = paged_mapping "mpeg" in
  let sh = fold_ok ~base_page:2 ~target_pages:2 m in
  if sh.pe_exact then assert_valid sh.mapping

let test_fold_from_relocated_base () =
  (* regression: fold indexed its per-page arrays with absolute page ids,
     so folding a mapping whose used pages start above page 0 read out of
     range.  Relocate to every feasible base, re-mark paged, and fold
     again all the way down. *)
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = paged_mapping "mpeg" in
  let n = Mapping.n_pages_used m in
  let total = Page.n_pages m.Mapping.arch.Cgra.pages in
  Alcotest.(check bool) "kernel leaves room to relocate" true (total > n);
  for base = 1 to total - n do
    let sh = fold_ok ~base_page:base ~target_pages:n m in
    Alcotest.(check bool) "relocation exact on square tiles" true sh.pe_exact;
    let src = { sh.mapping with Mapping.paged = true } in
    assert_valid src;
    Alcotest.(check int) "lowest used page" base (List.hd (Mapping.pages_used src));
    let sh1 = fold_ok ~target_pages:1 src in
    Alcotest.(check int)
      (Printf.sprintf "ii law from base %d" base)
      (Transform.ii_q ~ii_p:src.Mapping.ii ~n_used:n ~target_pages:1)
      sh1.mapping.ii;
    Alcotest.(check bool) "refold exact" true sh1.pe_exact;
    assert_valid sh1.mapping;
    let mem = Cgra_kernels.Kernels.init_memory k in
    match Cgra_sim.Check.against_oracle sh1.mapping mem ~iterations:24 with
    | Ok () -> ()
    | Error es -> Alcotest.failf "base %d diverges: %s" base (String.concat "; " es)
  done

let test_fold_no_slot_collisions () =
  (* validate already checks this, but assert directly for page-level
     results too *)
  List.iter
    (fun name ->
      let m = paged_mapping ~page_pes:2 name in
      let n = Mapping.n_pages_used m in
      for target = 1 to n do
        let sh = fold_ok ~target_pages:target m in
        let q = sh.mapping in
        let seen = Hashtbl.create 64 in
        let add (p : Mapping.placement) =
          let key = (Grid.index q.Mapping.arch.Cgra.grid p.pe, p.time mod q.ii) in
          Alcotest.(check bool)
            (Printf.sprintf "%s t%d no collision" name target)
            false (Hashtbl.mem seen key);
          Hashtbl.add seen key ()
        in
        Array.iter (Option.iter add) q.placements;
        List.iter (fun (r : Mapping.route) -> List.iter add r.hops) q.routes
      done)
    [ "sobel"; "swim"; "yuv2rgb" ]

let test_fold_factor () =
  let m = paged_mapping "swim" in
  let n = Mapping.n_pages_used m in
  for target = 1 to n + 2 do
    let sh = fold_ok ~target_pages:target m in
    Alcotest.(check int) "s = ceil(n/m_eff)"
      ((n + sh.m_eff - 1) / sh.m_eff)
      sh.s;
    Alcotest.(check int) "m_eff = min target n" (min target n) sh.m_eff
  done

let test_orientations_length () =
  let m = paged_mapping "laplace" in
  let sh = fold_ok ~target_pages:2 m in
  Alcotest.(check int) "one orientation per used page" sh.n_used
    (Array.length sh.orientations)

(* ---------- mirror ---------- *)

let test_mirror_relocate_identity () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  List.iter
    (fun pe ->
      let pe' = Mirror.relocate ~pages ~src_page:0 ~dst_page:0 Orient.identity pe in
      Alcotest.(check bool) "fixed point" true (Coord.equal pe pe'))
    (Page.pes_of_page pages 0)

let test_mirror_relocate_moves_tile () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  List.iter
    (fun pe ->
      let pe' = Mirror.relocate ~pages ~src_page:0 ~dst_page:2 Orient.identity pe in
      Alcotest.(check (option int)) "lands in page 2" (Some 2) (Page.page_of_pe pages pe'))
    (Page.pes_of_page pages 0)

let test_mirror_relocate_rejects_foreign () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Mirror.relocate ~pages ~src_page:0 ~dst_page:1 Orient.identity
            (Coord.make ~row:3 ~col:3));
       false
     with Invalid_argument _ -> true)

let test_mirror_solve_no_steps () =
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  match Mirror.solve ~pages ~src_base:0 ~n_used:3 ~s:3 ~base:0 ~cross_steps:[| []; []; [] |] with
  | Some o -> Alcotest.(check int) "length" 3 (Array.length o)
  | None -> Alcotest.fail "unconstrained solve must succeed"

let test_mirror_solve_fig6_fold () =
  (* Fig. 6: fold three ring pages onto one tile.  The 0-1 boundary is
     horizontal adjacency, the 1-2 boundary vertical (serpentine turn);
     mirroring must make every transferred value land within RF reach. *)
  let pages = Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2 in
  let steps01 = Page.boundary_pairs pages 0 in
  let steps12 = Page.boundary_pairs pages 1 in
  Alcotest.(check bool) "boundaries exist" true (steps01 <> [] && steps12 <> []);
  match Mirror.solve ~pages ~src_base:0 ~n_used:3 ~s:3 ~base:0 ~cross_steps:[| steps01; steps12 |] with
  | Some o ->
      let reloc n orient pe = Mirror.relocate ~pages ~src_page:n ~dst_page:0 orient pe in
      List.iter
        (fun (a, b) ->
          let a' = reloc 0 o.(0) a and b' = reloc 1 o.(1) b in
          Alcotest.(check bool) "0-1 within RF reach" true
            (Coord.equal a' b' || Coord.adjacent a' b'))
        steps01;
      List.iter
        (fun (a, b) ->
          let a' = reloc 1 o.(1) a and b' = reloc 2 o.(2) b in
          Alcotest.(check bool) "1-2 within RF reach" true
            (Coord.equal a' b' || Coord.adjacent a' b'))
        steps12
  | None -> Alcotest.fail "Fig. 6 fold must solve"

let test_mirror_band_reversal () =
  let pages = Page.band (Grid.square 6) ~size:8 in
  (* junction pair between band pages 0 and 1 *)
  let junction =
    List.filter
      (fun (a, b) ->
        abs (Grid.serp_index (Grid.square 6) a - Grid.serp_index (Grid.square 6) b) = 1)
      (Page.boundary_pairs pages 0)
  in
  Alcotest.(check bool) "junction exists" true (junction <> []);
  match Mirror.solve ~pages ~src_base:0 ~n_used:2 ~s:2 ~base:0 ~cross_steps:[| junction |] with
  | Some o ->
      List.iter
        (fun (a, b) ->
          let a' = Mirror.relocate ~pages ~src_page:0 ~dst_page:0 o.(0) a in
          let b' = Mirror.relocate ~pages ~src_page:1 ~dst_page:0 o.(1) b in
          Alcotest.(check bool) "reach" true (Coord.equal a' b' || Coord.adjacent a' b'))
        junction
  | None -> Alcotest.fail "band fold must solve via reversal"

(* ---------- end-to-end: fold then simulate ---------- *)

let test_fold_simulates_correctly () =
  List.iter
    (fun name ->
      let k = Cgra_kernels.Kernels.find_exn name in
      let m = paged_mapping name in
      let rec ladder target =
        if target >= 1 then begin
          let sh = fold_ok ~target_pages:target m in
          if sh.pe_exact then begin
            let mem = Cgra_kernels.Kernels.init_memory k in
            match Cgra_sim.Check.against_oracle sh.mapping mem ~iterations:24 with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s target %d: %s" name target (String.concat "; " es)
          end;
          ladder (target / 2)
        end
      in
      ladder (Mapping.n_pages_used m))
    [ "mpeg"; "sor"; "histeq"; "wavelet" ]

let prop_fold_synthetic =
  QCheck.Test.make ~name:"synthetic kernels fold exactly on square pages" ~count:20
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let cfg =
        {
          Cgra_kernels.Synthetic.n_ops = 10 + (seed mod 8);
          mem_fraction = 0.25;
          recurrence = seed mod 4 = 0;
        }
      in
      let g = Cgra_kernels.Synthetic.generate ~seed cfg in
      match Scheduler.map Paged (arch 4 4) g with
      | Error _ -> false
      | Ok m -> (
          match Transform.fold ~target_pages:1 m with
          | Error _ -> false
          | Ok sh ->
              sh.pe_exact
              && Mapping.validate ~check_mem:false sh.mapping = Ok ()
              && sh.mapping.ii = Transform.ii_q ~ii_p:m.ii ~n_used:sh.n_used ~target_pages:1))

let () =
  Alcotest.run "transform"
    [
      ( "fold",
        [
          Alcotest.test_case "ii_q formula" `Quick test_ii_q;
          Alcotest.test_case "errors" `Quick test_fold_errors;
          Alcotest.test_case "identity when target covers" `Quick
            test_fold_identity_when_target_covers;
          Alcotest.test_case "ii matches formula (all kernels, all targets)" `Quick
            test_fold_ii_matches_formula;
          Alcotest.test_case "halving ladder validates" `Quick
            test_fold_whole_ladder_validates;
          Alcotest.test_case "square tiles always exact" `Quick
            test_fold_square_tiles_always_exact;
          Alcotest.test_case "fold to one page exact everywhere" `Slow
            test_fold_to_one_page_always_exact;
          Alcotest.test_case "exact only when valid" `Quick test_fold_exact_only_when_valid;
          Alcotest.test_case "stays in target range" `Quick test_fold_stays_in_target_range;
          Alcotest.test_case "fold from relocated base" `Quick
            test_fold_from_relocated_base;
          Alcotest.test_case "base page relocation" `Quick
            test_fold_base_page_relocation_valid;
          Alcotest.test_case "no slot collisions" `Quick test_fold_no_slot_collisions;
          Alcotest.test_case "fold factor" `Quick test_fold_factor;
          Alcotest.test_case "orientations length" `Quick test_orientations_length;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "relocate identity" `Quick test_mirror_relocate_identity;
          Alcotest.test_case "relocate moves tile" `Quick test_mirror_relocate_moves_tile;
          Alcotest.test_case "relocate rejects foreign PE" `Quick
            test_mirror_relocate_rejects_foreign;
          Alcotest.test_case "solve without steps" `Quick test_mirror_solve_no_steps;
          Alcotest.test_case "Fig. 6 vertical fold" `Quick test_mirror_solve_fig6_fold;
          Alcotest.test_case "band reversal" `Quick test_mirror_band_reversal;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fold simulates correctly" `Quick
            test_fold_simulates_correctly;
          QCheck_alcotest.to_alcotest prop_fold_synthetic;
        ] );
    ]
