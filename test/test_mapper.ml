open Cgra_arch
open Cgra_dfg
open Cgra_mapper

let arch_4x4_p4 () = Option.get (Cgra.standard ~size:4 ~page_pes:4)

let arch_4x4_p2 () = Option.get (Cgra.standard ~size:4 ~page_pes:2)

let arch_6x6_p8 () = Option.get (Cgra.standard ~size:6 ~page_pes:8)

let map_ok ?trace kind arch g =
  match Scheduler.map ?trace kind arch g with
  | Ok m -> m
  | Error e -> Alcotest.failf "mapping failed: %s" e

let assert_valid ?check_mem m =
  match Mapping.validate ?check_mem m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid mapping: %s" (String.concat "; " es)

(* ---------- whole-suite mapping ---------- *)

let test_suite_maps_and_validates kind arch_fn () =
  let arch = arch_fn () in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok kind arch k.graph in
      assert_valid m;
      Alcotest.(check bool) (k.name ^ " ii >= mii") true
        (m.ii >= Scheduler.mii kind arch k.graph))
    Cgra_kernels.Kernels.all

let test_paged_uses_prefix_pages () =
  let arch = arch_4x4_p4 () in
  List.iter
    (fun (k : Cgra_kernels.Kernels.t) ->
      let m = map_ok Paged arch k.graph in
      let used = Mapping.pages_used m in
      List.iteri
        (fun i pg -> Alcotest.(check int) (k.name ^ " prefix") i pg)
        used)
    Cgra_kernels.Kernels.all

let test_paged_packs_fewer_pages () =
  (* small kernels should leave fabric unused under the paged compiler *)
  let arch = arch_6x6_p8 () in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Paged arch k.graph in
  Alcotest.(check bool) "mpeg fits in one 8-PE page" true
    (Mapping.n_pages_used m <= 2)

let test_mapping_deterministic () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let a = map_ok Paged arch k.graph in
  let b = map_ok Paged arch k.graph in
  Alcotest.(check int) "same ii" a.ii b.ii;
  Alcotest.(check bool) "same placements" true (a.placements = b.placements)

let test_race_matches_sequential () =
  (* the speculative (II, attempt) race must be bit-identical to the
     sequential ladder at any pool width — same mapping on success, same
     Error text on failure.  (The pool clamps to the machine's cores, so
     on a single-core host this exercises the lazy fallback; on
     multi-core hosts the same check covers the raced path.) *)
  let arch = arch_4x4_p4 () in
  Cgra_util.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          List.iter
            (fun (kind, tag) ->
              let seq = map_ok kind arch k.graph in
              match Scheduler.map ~pool kind arch k.graph with
              | Error e -> Alcotest.failf "raced %s %s failed: %s" k.name tag e
              | Ok raced ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s: raced = sequential" k.name tag)
                    true
                    ((seq.Mapping.ii, seq.placements, seq.routes, seq.paged)
                    = (raced.Mapping.ii, raced.placements, raced.routes,
                       raced.paged)))
            [ (Scheduler.Unconstrained, "base"); (Scheduler.Paged, "paged") ])
        Cgra_kernels.Kernels.all;
      (* infeasible case: identical Error text, produced only after every
         candidate up to max_ii is exhausted *)
      let k = Cgra_kernels.Kernels.find_exn "sobel" in
      match
        ( Scheduler.map ~max_ii:1 Paged arch k.graph,
          Scheduler.map ~max_ii:1 ~pool Paged arch k.graph )
      with
      | Error a, Error b -> Alcotest.(check string) "same error text" a b
      | _ -> Alcotest.fail "expected Error from both ladders")

let test_seed_changes_search () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let a = map_ok Paged arch k.graph in
  match Scheduler.map ~seed:99 Paged arch k.graph with
  | Ok b -> Alcotest.(check bool) "both valid" true (a.ii >= 1 && b.ii >= 1)
  | Error e -> Alcotest.failf "seed 99 failed: %s" e

let test_mii_lower_bounds () =
  let arch = arch_4x4_p4 () in
  let sor = Cgra_kernels.Kernels.find_exn "sor" in
  Alcotest.(check int) "sor MII = RecMII = 3" 3 (Scheduler.mii Unconstrained arch sor.graph);
  let sobel = Cgra_kernels.Kernels.find_exn "sobel" in
  Alcotest.(check bool) "sobel MII >= 2 (resources)" true
    (Scheduler.mii Unconstrained arch sobel.graph >= 2)

let test_consts_not_placed () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained arch k.graph in
  Array.iteri
    (fun v pl ->
      match ((Graph.node m.graph v).op, pl) with
      | Op.Const _, Some _ -> Alcotest.fail "const placed"
      | Op.Const _, None -> ()
      | _, None -> Alcotest.fail "op unplaced"
      | _, Some _ -> ())
    m.placements

let test_unmappable_reports_error () =
  (* a graph needing more simultaneous memory ports than the fabric has at
     II=max cannot fit on a 1-wide window; use tiny max_ii to force error *)
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let arch = arch_4x4_p4 () in
  match Scheduler.map ~max_ii:1 Paged arch k.graph with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure at max_ii 1"

(* ---------- validator negative cases ---------- *)

let tiny_graph () =
  (* load -> abs -> store, plus a second const-fed store for variety *)
  Graph.create ~name:"tiny"
    ~ops:
      [
        Op.Load { array = "a"; offset = 0; stride = 1 };
        Op.Abs;
        Op.Store { array = "b"; offset = 0; stride = 1 };
      ]
    ~edges:[ (0, 1, 0, 0); (1, 2, 0, 0) ]

let place ~row ~col ~time = Some { Mapping.pe = Coord.make ~row ~col; time }

let manual_mapping ?(paged = false) ?(routes = []) ~ii placements =
  {
    Mapping.arch = arch_4x4_p4 ();
    graph = tiny_graph ();
    ii;
    placements = Array.of_list placements;
    routes;
    paged;
  }

let expect_invalid_with fragment m =
  match Mapping.validate m with
  | Ok () -> Alcotest.failf "expected invalid (%s)" fragment
  | Error es ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s in: %s" fragment (String.concat "; " es))
        true
        (List.exists (fun e -> contains e fragment) es)

let test_validate_ok_manual () =
  let m =
    manual_mapping ~ii:2
      [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:1 ~time:1; place ~row:1 ~col:1 ~time:2 ]
  in
  assert_valid m

let test_validate_slot_conflict () =
  let m =
    manual_mapping ~ii:1
      [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:0 ~time:1; place ~row:0 ~col:1 ~time:2 ]
  in
  (* nodes 0 and 1 share PE (0,0) with ii=1: same modulo slot *)
  expect_invalid_with "slot conflict" m

let test_validate_unreachable () =
  let m =
    manual_mapping ~ii:4
      [ place ~row:0 ~col:0 ~time:0; place ~row:3 ~col:3 ~time:1; place ~row:3 ~col:2 ~time:2 ]
  in
  expect_invalid_with "cannot read" m

let test_validate_time_order () =
  let m =
    manual_mapping ~ii:4
      [ place ~row:0 ~col:0 ~time:2; place ~row:0 ~col:1 ~time:2; place ~row:1 ~col:1 ~time:3 ]
  in
  expect_invalid_with "before value ready" m

let test_validate_unplaced () =
  let m =
    manual_mapping ~ii:2
      [ place ~row:0 ~col:0 ~time:0; None; place ~row:1 ~col:1 ~time:2 ]
  in
  expect_invalid_with "unplaced" m

let test_validate_negative_time () =
  let m =
    manual_mapping ~ii:2
      [ place ~row:0 ~col:0 ~time:(-1); place ~row:0 ~col:1 ~time:1; place ~row:1 ~col:1 ~time:2 ]
  in
  expect_invalid_with "negative" m

let test_validate_ring_violation () =
  (* paged: node 1 in page 0 consuming from node 0 in page 1 goes backwards *)
  let m =
    manual_mapping ~paged:true ~ii:4
      [ place ~row:0 ~col:2 ~time:0; place ~row:0 ~col:1 ~time:1; place ~row:1 ~col:1 ~time:2 ]
  in
  expect_invalid_with "cannot read" m

let test_validate_mem_ports () =
  (* three loads on one row at the same modulo slot exceed 2 ports/row *)
  let g =
    Graph.create ~name:"loads"
      ~ops:
        [
          Op.Load { array = "a"; offset = 0; stride = 1 };
          Op.Load { array = "a"; offset = 1; stride = 1 };
          Op.Load { array = "a"; offset = 2; stride = 1 };
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 3, 0, 0) ]
  in
  let m =
    {
      Mapping.arch = arch_4x4_p4 ();
      graph = g;
      ii = 1;
      placements =
        Array.of_list
          [
            place ~row:0 ~col:0 ~time:0;
            place ~row:0 ~col:1 ~time:0;
            place ~row:0 ~col:2 ~time:0;
            place ~row:1 ~col:0 ~time:1;
          ];
      routes = [];
      paged = false;
    }
  in
  expect_invalid_with "memory ports" m;
  match Mapping.validate ~check_mem:false m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check_mem:false should pass: %s" (String.concat ";" es)

let test_validate_rf_capacity () =
  (* a value read rf_capacity+1 IIs later needs too many rotating regs *)
  let arch =
    Cgra.make ~rf_capacity:2
      (Page.rect (Grid.square 4) ~tile_rows:2 ~tile_cols:2)
  in
  let m =
    {
      (manual_mapping ~ii:1
         [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:1 ~time:4; place ~row:1 ~col:1 ~time:5 ])
      with
      arch;
    }
  in
  expect_invalid_with "registers" m

let test_validate_memdep_violation () =
  (* store a[i] feeds load a[i-2] two iterations later (true dependence,
     distance 2).  Scheduling the store far after the load breaks the
     sequential memory order even though no data edge connects them. *)
  let g =
    Graph.create ~name:"st-ld"
      ~ops:
        [
          Op.Load { array = "x"; offset = 0; stride = 1 };
          Op.Store { array = "a"; offset = 0; stride = 1 };
          Op.Load { array = "a"; offset = -2; stride = 1 };
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0); (2, 3, 0, 0) ]
  in
  let m =
    {
      Mapping.arch = arch_4x4_p4 ();
      graph = g;
      ii = 1;
      (* load of a[] at time 0; store to a[] at time 10: the load of
         iteration i (cycle i) reads before the store of iteration i-2
         (cycle i+8) wrote the cell *)
      placements =
        Array.of_list
          [
            place ~row:0 ~col:0 ~time:9;
            place ~row:0 ~col:1 ~time:10;
            place ~row:2 ~col:0 ~time:0;
            place ~row:2 ~col:1 ~time:1;
          ];
      routes = [];
      paged = false;
    }
  in
  expect_invalid_with "memory ordering" m

(* ---------- routes ---------- *)

let test_route_through_pe () =
  (* producer at (0,0), consumer at (0,3): needs hops *)
  let g =
    Graph.create ~name:"far"
      ~ops:
        [
          Op.Load { array = "a"; offset = 0; stride = 1 };
          Op.Store { array = "b"; offset = 0; stride = 1 };
        ]
      ~edges:[ (0, 1, 0, 0) ]
  in
  let hop t r c = { Mapping.pe = Coord.make ~row:r ~col:c; time = t } in
  let m =
    {
      Mapping.arch = arch_4x4_p4 ();
      graph = g;
      ii = 4;
      placements = Array.of_list [ place ~row:0 ~col:0 ~time:0; place ~row:0 ~col:3 ~time:3 ];
      routes = [ { Mapping.edge = { src = 0; dst = 1; operand = 0; distance = 0 }; hops = [ hop 1 0 1; hop 2 0 2 ] } ];
      paged = false;
    }
  in
  assert_valid m;
  (* dropping the route must fail *)
  expect_invalid_with "cannot read" { m with routes = [] }

(* A router workspace over the 4x4 fabric with mesh reach and no page
   limits, where every slot of a [busy] PE is taken. *)
let route_4x4 ?(busy = fun _ -> false) ~ii ~src ~dst ~deadline ~max_hops () =
  let grid = (arch_4x4_p4 ()).Cgra.grid in
  let n = Grid.pe_count grid in
  let fab =
    Router.fabric grid ~pes:(Array.of_list (Grid.all_pes grid)) ~page:(Array.make n 0)
      ~reach:(fun a b ->
        Coord.equal a b || Coord.adjacent a b)
  in
  let occupied = Bytes.make (n * ii) '\000' in
  List.iteri
    (fun i pe -> if busy pe then Bytes.fill occupied (i * ii) ii '\001')
    (Grid.all_pes grid);
  let ws = Router.workspace fab ~ii ~occupied ~overlay:(Array.make (n * ii) 0) () in
  let r =
    Router.route ws ~gen:1 ~lo_page:min_int ~hi_page:max_int
      ~src:{ Mapping.pe = src; time = 0 }
      ~dst_pe:dst ~deadline ~max_hops
  in
  (r, ws)

let rc r c = Coord.make ~row:r ~col:c

let test_router_finds_path () =
  let read_adjacent a b = Coord.equal a b || Coord.adjacent a b in
  match route_4x4 ~ii:4 ~src:(rc 0 0) ~dst:(rc 3 3) ~deadline:8 ~max_hops:8 () with
  | Some hops, ws ->
      Alcotest.(check bool) "needs >= 4 hops" true (List.length hops >= 4);
      (* chain is contiguous in space and increasing in time *)
      let rec check prev = function
        | [] -> ()
        | (h : Mapping.placement) :: rest ->
            Alcotest.(check bool) "adjacent" true
              (read_adjacent prev.Mapping.pe h.pe);
            Alcotest.(check bool) "later" true (h.time > prev.Mapping.time);
            check h rest
      in
      check { Mapping.pe = rc 0 0; time = 0 } hops;
      Alcotest.(check int) "one search" 1 (Router.searches ws);
      Alcotest.(check bool) "expanded at least the chain" true
        (Router.expansions ws >= List.length hops)
  | None, _ -> Alcotest.fail "no route"

let test_router_direct_case () =
  match route_4x4 ~ii:2 ~src:(rc 0 0) ~dst:(rc 0 1) ~deadline:5 ~max_hops:4 () with
  | Some [], ws -> Alcotest.(check int) "no search" 0 (Router.searches ws)
  | Some _, _ -> Alcotest.fail "expected no hops"
  | None, _ -> Alcotest.fail "expected direct"

let test_router_respects_deadline () =
  match route_4x4 ~ii:8 ~src:(rc 0 0) ~dst:(rc 3 3) ~deadline:2 ~max_hops:8 () with
  | None, ws -> Alcotest.(check int) "rejected before searching" 0 (Router.searches ws)
  | Some _, _ -> Alcotest.fail "deadline too tight for 4 hops"

let test_router_respects_occupancy () =
  (* wall of busy slots in column 1 except one cell forces the path
     through that cell *)
  let busy (pe : Coord.t) = pe.col = 1 && pe.row <> 2 in
  match
    route_4x4 ~busy ~ii:8 ~src:(rc 0 0) ~dst:(rc 0 3) ~deadline:20 ~max_hops:10 ()
  with
  | Some hops, _ ->
      Alcotest.(check bool) "path uses the gap" true
        (List.exists
           (fun (h : Mapping.placement) -> h.pe.Coord.col = 1 && h.pe.Coord.row = 2)
           hops);
      Alcotest.(check bool) "no busy hop" true
        (List.for_all (fun (h : Mapping.placement) -> not (busy h.pe)) hops)
  | None, _ -> Alcotest.fail "router should find a detour"

let test_router_tie_order () =
  (* Equal (hops, cost, time) keys pop in push order, and neighbours are
     pushed N/E/S/W then self.  From (0,1) to a reader at (1,0) the
     one-hop relays are (1,1) (pushed as S) and (0,0) (pushed as W), so
     the chain is [(1,1)] at t = 1 — not the lower-indexed (0,0). *)
  match route_4x4 ~ii:4 ~src:(rc 0 1) ~dst:(rc 1 0) ~deadline:4 ~max_hops:4 () with
  | Some [ h ], _ ->
      Alcotest.(check (pair int int)) "hop PE" (1, 1) (h.pe.Coord.row, h.pe.Coord.col);
      Alcotest.(check int) "hop time" 1 h.time
  | Some hops, _ -> Alcotest.failf "expected one hop, got %d" (List.length hops)
  | None, _ -> Alcotest.fail "no route"

let test_router_page_range () =
  (* On 4x4 with 4-PE pages, a chain restricted to pages [0, 0] cannot
     leave page 0, so a consumer two pages away is unreachable, while
     the paged reach relation lets the full range relay through page 1. *)
  let arch = arch_4x4_p4 () in
  let grid = arch.Cgra.grid in
  let pages = arch.Cgra.pages in
  let page =
    Array.of_list
      (List.map
         (fun pe -> Option.value ~default:(-1) (Page.page_of_pe pages pe))
         (Grid.all_pes grid))
  in
  let fab =
    Router.fabric grid ~pes:(Array.of_list (Grid.all_pes grid)) ~page ~reach:(fun a b ->
        let pa = page.(Grid.index grid a) and pb = page.(Grid.index grid b) in
        pa >= 0 && (pb = pa || pb = pa + 1) && (Coord.equal a b || Coord.adjacent a b))
  in
  let ii = 4 and n = Grid.pe_count grid in
  let ws =
    Router.workspace fab ~ii
      ~occupied:(Bytes.make (n * ii) '\000')
      ~overlay:(Array.make (n * ii) 0) ()
  in
  let src = List.hd (Page.pes_of_page pages 0)
  and dst = List.hd (Page.pes_of_page pages 2) in
  let go hi =
    Router.route ws ~gen:1 ~lo_page:0 ~hi_page:hi
      ~src:{ Mapping.pe = src; time = 0 }
      ~dst_pe:dst ~deadline:16 ~max_hops:12
  in
  Alcotest.(check bool) "confined to page 0" true (go 0 = None);
  match go 2 with
  | None -> Alcotest.fail "expected a relay through page 1"
  | Some hops ->
      List.iter
        (fun (h : Mapping.placement) ->
          Alcotest.(check bool) "hop inside pages 0-2" true
            (let p = page.(Grid.index grid h.pe) in
             p >= 0 && p <= 2))
        hops

(* The scheduler skips every (PE, time) candidate whose edge
   [Router.min_lead] rules out, so the bound must never rule out a
   deadline and hop budget some chain could meet.  On an empty fabric a
   route with an ample deadline and hop budget returns a fewest-hop
   chain with every hop in its earliest slot: with [h] hops the earliest
   deadline any chain meets is [h + 1] cycles after the source (one
   cycle for a direct read), under any hop budget of at least [h].
   Property: the bound's least lead never exceeds that, over every
   (src, dst) pair of a 4x4 and a 6x6 fabric, mesh and paged reach,
   every page range and a spread of hop budgets. *)
let test_router_bound_sound () =
  let check_fabric ~paged size page_pes =
    let arch = Option.get (Cgra.standard ~size ~page_pes) in
    let grid = arch.Cgra.grid in
    let pes = Array.of_list (Grid.all_pes grid) in
    let n = Array.length pes in
    let page =
      Array.map
        (fun pe -> Option.value ~default:(-1) (Page.page_of_pe arch.Cgra.pages pe))
        pes
    in
    let mesh a b = Coord.equal a b || Coord.adjacent a b in
    let reach a b =
      if not paged then mesh a b
      else
        let pa = page.(Grid.index grid a) and pb = page.(Grid.index grid b) in
        pa >= 0 && (pb = pa || pb = pa + 1) && mesh a b
    in
    let fab = Router.fabric grid ~pes ~page ~reach in
    let ii = 64 and src_time = 3 in
    let ws =
      Router.workspace fab ~ii
        ~occupied:(Bytes.make (n * ii) '\000')
        ~overlay:(Array.make (n * ii) 0) ()
    in
    let n_pages = Cgra.n_pages arch in
    let ranges =
      if paged then
        List.concat_map
          (fun lo -> List.init (n_pages - lo) (fun k -> (lo, lo + k)))
          (List.init n_pages Fun.id)
      else [ (min_int, max_int) ]
    in
    let chains = ref 0 in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        List.iter
          (fun (lo_page, hi_page) ->
            let fewest =
              match
                Router.route ws ~gen:1 ~lo_page ~hi_page
                  ~src:{ Mapping.pe = pes.(s); time = src_time }
                  ~dst_pe:pes.(d) ~deadline:(src_time + ii - 1) ~max_hops:ii
              with
              | None -> None
              | Some hops ->
                  let h = List.length hops in
                  if h > 0 then
                    Alcotest.(check int) "empty fabric: one cycle per hop"
                      (src_time + h)
                      (List.nth hops (h - 1)).Mapping.time;
                  Some h
            in
            List.iter
              (fun max_hops ->
                let earliest =
                  match fewest with
                  | Some 0 -> Some 1
                  | Some h when h <= max_hops -> Some (h + 1)
                  | Some _ | None -> None
                in
                let lead = Router.min_lead fab s d ~max_hops in
                match earliest with
                | None -> ()
                | Some e ->
                    incr chains;
                    if lead < 0 || lead > e then
                      Alcotest.failf
                        "%dx%d p%d%s: (%d,%d) -> (%d,%d), pages [%d, %d], %d \
                         hops: bound %d rules out a chain meeting lead %d"
                        size size page_pes
                        (if paged then " paged" else "")
                        pes.(s).row pes.(s).col pes.(d).row pes.(d).col lo_page
                        hi_page max_hops lead e)
              [ 0; 1; 2; 3; 4; 8; 12 ])
          ranges
      done
    done;
    Alcotest.(check bool) "chains found" true (!chains > 0)
  in
  check_fabric ~paged:false 4 4;
  check_fabric ~paged:true 4 4;
  check_fabric ~paged:false 6 4;
  check_fabric ~paged:true 6 8

(* ---------- bandwidth-aware scheduling ---------- *)

let grid_fabrics = [ (4, 2); (4, 4); (6, 2); (6, 4); (6, 8); (8, 2); (8, 4); (8, 8) ]

let test_bus_aware_ii_monotone () =
  (* The bus-aware ladder replays the complete legacy attempt family
     byte-identically after its own family, so for every (kernel,
     fabric, seed) cell of the Fig. 8 grid the achieved paged II can
     only improve.  264 cells: 11 kernels x 8 fabric/page combos x 3
     seeds, each compiled both ways. *)
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          List.iter
            (fun seed ->
              let tag =
                Printf.sprintf "%s %dx%d p%d seed %d" k.name size size page_pes
                  seed
              in
              let compile ~bus_aware =
                match Scheduler.map ~seed ~bus_aware Paged arch k.graph with
                | Ok m -> m
                | Error e -> Alcotest.failf "%s (bus_aware=%b) failed: %s" tag bus_aware e
              in
              let legacy = compile ~bus_aware:false in
              let bus = compile ~bus_aware:true in
              assert_valid bus;
              if bus.ii > legacy.ii then
                Alcotest.failf "%s: bus-aware II %d worse than legacy II %d" tag
                  bus.ii legacy.ii)
            [ 0; 1; 2 ])
        Cgra_kernels.Kernels.all)
    grid_fabrics

let test_bus_aware_race_identical () =
  (* byte-identical results at -j 1/2/4 with the bus-aware family in the
     raced ladder (the lowest-index-winner contract must survive the
     doubled per-II attempt space) *)
  let kernels =
    List.map Cgra_kernels.Kernels.find_exn [ "yuv2rgb"; "swim"; "sobel" ]
  in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          let seq = map_ok Paged arch k.graph in
          List.iter
            (fun j ->
              Cgra_util.Pool.with_pool ~domains:j (fun pool ->
                  match Scheduler.map ~pool Paged arch k.graph with
                  | Error e ->
                      Alcotest.failf "%s %dx%d p%d -j %d failed: %s" k.name size
                        size page_pes j e
                  | Ok raced ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %dx%d p%d -j %d = sequential" k.name
                           size size page_pes j)
                        true
                        ((seq.Mapping.ii, seq.placements, seq.routes)
                        = (raced.Mapping.ii, raced.placements, raced.routes))))
            [ 1; 2; 4 ])
        kernels)
    grid_fabrics

(* ---------- decision identity ---------- *)

(* One digest over (ii, placements, routes) of every kernel x fabric x
   kind of the Fig. 8 grid at [seed].  Any change to a placement, a hop,
   a tie-break or the rng stream changes it, so a speed-up of the
   scheduler or router must leave the pinned values alone. *)
let grid_digest ?pool seed =
  let b = Buffer.create 4096 in
  List.iter
    (fun (size, page_pes) ->
      let arch = Option.get (Cgra.standard ~size ~page_pes) in
      List.iter
        (fun (k : Cgra_kernels.Kernels.t) ->
          List.iter
            (fun kind ->
              match Scheduler.map ~seed ?pool kind arch k.graph with
              | Ok m ->
                  Buffer.add_string b
                    (Marshal.to_string (m.Mapping.ii, m.placements, m.routes)
                       [ Marshal.No_sharing ])
              | Error e -> Buffer.add_string b e)
            [ Scheduler.Unconstrained; Scheduler.Paged ])
        Cgra_kernels.Kernels.all)
    grid_fabrics;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_grid_digests () =
  let pinned =
    [
      (0, "6e5d8e4a635368e32b806759325ce94c");
      (3, "b240eaee4df2160afc8cae2b29941a1e");
      (7, "ef6c88e0bf128c634780712b5b20da5d");
    ]
  in
  Cgra_util.Pool.with_pool ~clamp:false ~domains:2 (fun pool ->
      List.iter
        (fun (seed, want) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d sequential" seed)
            want (grid_digest seed);
          Alcotest.(check string)
            (Printf.sprintf "seed %d width 2" seed)
            want (grid_digest ~pool seed))
        pinned)

let test_route_counters () =
  (* the router's work counts are deterministic for a sequential map *)
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "sobel" in
  let counts () =
    let trace = Cgra_trace.Trace.make () in
    ignore (map_ok ~trace Paged arch k.graph);
    let counter name =
      List.fold_left
        (fun acc (e : Cgra_trace.Trace.event) ->
          match e.payload with
          | Cgra_trace.Trace.Counter { name = n; value } when n = name ->
              acc +. value
          | _ -> acc)
        0.0
        (Cgra_trace.Trace.events trace)
    in
    (counter "sched.route.searches", counter "sched.route.expansions")
  in
  let ((searches, expansions) as a) = counts () in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "repeatable" a (counts ());
  Alcotest.(check bool) "searches > 0" true (searches > 0.0);
  Alcotest.(check bool) "expansions >= searches" true (expansions >= searches)

(* ---------- properties over synthetic kernels ---------- *)

let prop_synthetic_maps_validate kind name =
  QCheck.Test.make ~name ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        {
          Cgra_kernels.Synthetic.n_ops = 8 + (seed mod 10);
          mem_fraction = 0.3;
          recurrence = seed mod 3 = 0;
        }
      in
      let g = Cgra_kernels.Synthetic.generate ~seed cfg in
      match Scheduler.map kind (arch_4x4_p4 ()) g with
      | Ok m -> Mapping.validate m = Ok ()
      | Error _ -> false)

let test_steps_cover_edges () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "laplace" in
  let m = map_ok Paged arch k.graph in
  let non_const_edges =
    List.filter
      (fun (e : Graph.edge) ->
        match (Graph.node m.graph e.src).op with Op.Const _ -> false | _ -> true)
      (Graph.edges m.graph)
  in
  Alcotest.(check bool) "at least one step per non-const edge" true
    (List.length (Mapping.steps m) >= List.length non_const_edges)

let test_mapping_stats () =
  let arch = arch_4x4_p4 () in
  let k = Cgra_kernels.Kernels.find_exn "mpeg" in
  let m = map_ok Unconstrained arch k.graph in
  Alcotest.(check bool) "utilization in (0,1]" true
    (Mapping.utilization m > 0.0 && Mapping.utilization m <= 1.0);
  Alcotest.(check bool) "schedule length >= ii" true (Mapping.schedule_length m >= m.ii);
  Alcotest.(check bool) "pages used non-empty" true (Mapping.n_pages_used m >= 1)

let () =
  Alcotest.run "mapper"
    [
      ( "suite",
        [
          Alcotest.test_case "baseline maps 4x4p4" `Quick
            (test_suite_maps_and_validates Scheduler.Unconstrained arch_4x4_p4);
          Alcotest.test_case "paged maps 4x4p4" `Quick
            (test_suite_maps_and_validates Scheduler.Paged arch_4x4_p4);
          Alcotest.test_case "paged maps 4x4p2" `Quick
            (test_suite_maps_and_validates Scheduler.Paged arch_4x4_p2);
          Alcotest.test_case "paged maps 6x6p8 (band)" `Quick
            (test_suite_maps_and_validates Scheduler.Paged arch_6x6_p8);
          Alcotest.test_case "paged prefix pages" `Quick test_paged_uses_prefix_pages;
          Alcotest.test_case "paged packs pages" `Quick test_paged_packs_fewer_pages;
          Alcotest.test_case "deterministic" `Quick test_mapping_deterministic;
          Alcotest.test_case "raced = sequential" `Quick
            test_race_matches_sequential;
          Alcotest.test_case "seed variation" `Quick test_seed_changes_search;
          Alcotest.test_case "mii bounds" `Quick test_mii_lower_bounds;
          Alcotest.test_case "consts not placed" `Quick test_consts_not_placed;
          Alcotest.test_case "unmappable errors" `Quick test_unmappable_reports_error;
          Alcotest.test_case "steps cover edges" `Quick test_steps_cover_edges;
          Alcotest.test_case "stats" `Quick test_mapping_stats;
        ] );
      ( "validate",
        [
          Alcotest.test_case "manual ok" `Quick test_validate_ok_manual;
          Alcotest.test_case "slot conflict" `Quick test_validate_slot_conflict;
          Alcotest.test_case "unreachable" `Quick test_validate_unreachable;
          Alcotest.test_case "time order" `Quick test_validate_time_order;
          Alcotest.test_case "unplaced node" `Quick test_validate_unplaced;
          Alcotest.test_case "negative time" `Quick test_validate_negative_time;
          Alcotest.test_case "ring violation" `Quick test_validate_ring_violation;
          Alcotest.test_case "memory ports" `Quick test_validate_mem_ports;
          Alcotest.test_case "rf capacity" `Quick test_validate_rf_capacity;
          Alcotest.test_case "memdep ordering" `Quick test_validate_memdep_violation;
        ] );
      ( "router",
        [
          Alcotest.test_case "route through PEs" `Quick test_route_through_pe;
          Alcotest.test_case "finds path" `Quick test_router_finds_path;
          Alcotest.test_case "direct case" `Quick test_router_direct_case;
          Alcotest.test_case "deadline" `Quick test_router_respects_deadline;
          Alcotest.test_case "occupancy detour" `Quick test_router_respects_occupancy;
          Alcotest.test_case "tie order" `Quick test_router_tie_order;
          Alcotest.test_case "page range" `Quick test_router_page_range;
          Alcotest.test_case "hoisted bound is sound" `Quick test_router_bound_sound;
        ] );
      ( "bus-aware",
        [
          Alcotest.test_case "II monotone over the Fig. 8 grid" `Slow
            test_bus_aware_ii_monotone;
          Alcotest.test_case "raced = sequential at -j 1/2/4" `Slow
            test_bus_aware_race_identical;
        ] );
      ( "identity",
        [
          Alcotest.test_case "grid digests at seeds 0/3/7, -j 1 and 2" `Slow
            test_grid_digests;
          Alcotest.test_case "route counters repeatable" `Quick test_route_counters;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            (prop_synthetic_maps_validate Scheduler.Unconstrained
               "synthetic kernels map (baseline) and validate");
          QCheck_alcotest.to_alcotest
            (prop_synthetic_maps_validate Scheduler.Paged
               "synthetic kernels map (paged) and validate");
        ] );
    ]
