open Cgra_arch
open Cgra_mapper

type shrunk = {
  mapping : Mapping.t;
  source : Mapping.t;
  n_used : int;
  m_eff : int;
  s : int;
  base_page : int;
  orientations : Orient.t array;
  pe_exact : bool;
}

let cdiv a b = (a + b - 1) / b

let ii_q ~ii_p ~n_used ~target_pages =
  if n_used <= 0 then ii_p else ii_p * cdiv n_used (min target_pages (max 1 n_used))

let fold ?(base_page = 0) ~target_pages (src : Mapping.t) =
  let pages = src.arch.Cgra.pages in
  let page_of pe =
    match Page.page_of_pe pages pe with
    | Some p -> p
    | None -> invalid_arg "Transform.fold: occupant outside any page"
  in
  if not src.paged then Error "Transform.fold: source mapping is not paged"
  else if target_pages < 1 then Error "Transform.fold: target_pages < 1"
  else begin
    let used = Mapping.pages_used src in
    let n_used = List.length used in
    if n_used = 0 then Error "Transform.fold: empty mapping"
    else begin
      (* The allocator may have placed the source at any base: renumber
         its pages relative to the lowest one so the fold arrays are
         indexed [0 .. n_used-1] whatever the source's absolute range. *)
      let src_base = List.hd used in
      let contiguous =
        List.for_all2 (fun pg i -> pg = src_base + i) used (List.init n_used Fun.id)
      in
      if not contiguous then
        Error "Transform.fold: source pages are not a contiguous ring run"
      else begin
        let rel pg = pg - src_base in
        let m_eff = min target_pages n_used in
        let s = cdiv n_used m_eff in
        if base_page < 0 || base_page + m_eff > Page.n_pages pages then
          Error
            (Printf.sprintf "Transform.fold: pages [%d, %d) exceed the fabric" base_page
               (base_page + m_eff))
        else begin
          (* Cross-page steps constrain the per-page mirroring. *)
          let cross_steps = Array.make (max 1 (n_used - 1)) [] in
          List.iter
            (fun ((a : Mapping.placement), (b : Mapping.placement)) ->
              let pa = rel (page_of a.pe) and pb = rel (page_of b.pe) in
              if pb = pa + 1 then cross_steps.(pa) <- (a.pe, b.pe) :: cross_steps.(pa))
            (Mapping.steps src);
          let orientations, pe_exact =
            match
              Mirror.solve ~pages ~src_base ~n_used ~s ~base:base_page ~cross_steps
            with
            | Some o -> (o, true)
            | None -> (Array.make n_used Orient.identity, false)
          in
          let move (p : Mapping.placement) =
            let n = rel (page_of p.pe) in
            let pe =
              Mirror.relocate ~pages ~src_page:(src_base + n)
                ~dst_page:(base_page + (n / s)) orientations.(n) p.pe
            in
            { Mapping.pe; time = (p.time * s) + (n mod s) }
          in
          let mapping =
            {
              src with
              Mapping.ii = src.ii * s;
              placements = Array.map (Option.map move) src.placements;
              routes =
                List.map
                  (fun (r : Mapping.route) -> { r with hops = List.map move r.hops })
                  src.routes;
              paged = false;
            }
          in
          (* An embedding keeps every read in reach, but stretching
             lifetimes by [s] can still overflow a register file: the
             fold is PE-exact only when the result re-validates. *)
          let pe_exact =
            pe_exact && Result.is_ok (Mapping.validate ~check_mem:false mapping)
          in
          Ok { mapping; source = src; n_used; m_eff; s; base_page; orientations; pe_exact }
        end
      end
    end
  end
