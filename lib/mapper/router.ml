open Cgra_arch

type fabric = {
  n : int;
  grid : Grid.t;
  pes : Coord.t array;  (* row-major, the caller's table *)
  nbrs : int array array;
      (* pe -> mesh neighbours (N/E/S/W) followed by the PE itself: the
         exact expansion order of the search *)
  page : int array;
  reach : Bytes.t;  (* a * n + b -> '\001' when b may read a's RF *)
}

let fabric grid ~pes ~page ~reach =
  let n = Array.length pes in
  let table = Bytes.make (n * n) '\000' in
  Array.iteri
    (fun a pa ->
      Array.iteri
        (fun b pb -> if reach pa pb then Bytes.set table ((a * n) + b) '\001')
        pes)
    pes;
  {
    n;
    grid;
    pes;
    nbrs =
      Array.map
        (fun pe ->
          Array.of_list
            (List.map (Grid.index grid) (Grid.neighbors grid pe @ [ pe ])))
        pes;
    page;
    reach = table;
  }

let reaches fab a b = Bytes.get fab.reach ((a * fab.n) + b) = '\001'

let dist fab a b =
  let pa = fab.pes.(a) and pb = fab.pes.(b) in
  abs (pa.row - pb.row) + abs (pa.col - pb.col)

(* Every hop pushed by a search is one entry of [stride] ints, numbered
   in push order; the entry number doubles as the heap's final
   tie-break, which is exactly "earliest insertion wins". *)
let stride = 5

let f_pe = 0

let f_time = 1

let f_hops = 2

let f_cost = 3

let f_parent = 4

type workspace = {
  fab : fabric;
  ii : int;
  occupied : Bytes.t;  (* pe * ii + slot -> '\001' when taken *)
  overlay : int array;  (* pe * ii + slot -> generation of a tentative hop *)
  hop_cost : (int -> int -> int) option;
  stamp : int array;  (* pe -> search whose best_* entries are valid *)
  best_h : int array;
  best_c : int array;
  best_t : int array;
  mutable entries : int array;
  mutable n_entries : int;
  mutable heap : int array;  (* entry numbers, binary min-heap *)
  mutable heap_len : int;
  (* the running search's parameters *)
  mutable gen : int;
  mutable lo_page : int;
  mutable hi_page : int;
  mutable dst : int;
  mutable last : int;  (* latest slot a hop may take: deadline - 1 *)
  mutable max_hops : int;
  (* work counters *)
  mutable searches : int;
  mutable expansions : int;
}

let workspace fab ~ii ~occupied ~overlay ?hop_cost () =
  let cap = 32 in
  {
    fab;
    ii;
    occupied;
    overlay;
    hop_cost;
    stamp = Array.make fab.n 0;
    best_h = Array.make fab.n 0;
    best_c = Array.make fab.n 0;
    best_t = Array.make fab.n 0;
    entries = Array.make (cap * stride) 0;
    n_entries = 0;
    heap = Array.make cap 0;
    heap_len = 0;
    gen = 0;
    lo_page = 0;
    hi_page = 0;
    dst = 0;
    last = 0;
    max_hops = 0;
    searches = 0;
    expansions = 0;
  }

let searches ws = ws.searches

let expansions ws = ws.expansions

let field ws e f = ws.entries.((e * stride) + f)

let allowed ws pe =
  let p = ws.fab.page.(pe) in
  p >= ws.lo_page && p <= ws.hi_page

(* [k] walks the reservation-table entries of one PE row, [pe * ii +
   t mod ii], wrapping at [row_end] without a division per slot. *)
let rec scan ws ~row_end k t stop =
  if t > stop then -1
  else if Bytes.get ws.occupied k = '\000' && ws.overlay.(k) <> ws.gen then t
  else
    let k = if k + 1 = row_end then row_end - ws.ii else k + 1 in
    scan ws ~row_end k (t + 1) stop

(* The earliest free slot of [pe] at or after [lower] and no later than
   [last], or -1 (schedule times are non-negative).  One II of slots
   suffices: slots repeat modulo ii. *)
let earliest_free ws pe lower =
  let base = pe * ws.ii in
  scan ws ~row_end:(base + ws.ii) (base + (lower mod ws.ii)) lower
    (min ws.last (lower + ws.ii - 1))

(* Heap order: (hops, cost, arrival time, push order). *)
let less ws a b =
  let ha = field ws a f_hops and hb = field ws b f_hops in
  ha < hb
  || ha = hb
     &&
     let ca = field ws a f_cost and cb = field ws b f_cost in
     ca < cb
     || ca = cb
        &&
        let ta = field ws a f_time and tb = field ws b f_time in
        ta < tb || (ta = tb && a < b)

let rec sift_up ws i e =
  if i = 0 then ws.heap.(0) <- e
  else begin
    let p = (i - 1) / 2 in
    let pe = ws.heap.(p) in
    if less ws e pe then begin
      ws.heap.(i) <- pe;
      sift_up ws p e
    end
    else ws.heap.(i) <- e
  end

let rec sift_down ws i e =
  let l = (2 * i) + 1 in
  if l >= ws.heap_len then ws.heap.(i) <- e
  else begin
    let c =
      if l + 1 < ws.heap_len && less ws ws.heap.(l + 1) ws.heap.(l) then l + 1
      else l
    in
    let ce = ws.heap.(c) in
    if less ws ce e then begin
      ws.heap.(i) <- ce;
      sift_down ws c e
    end
    else ws.heap.(i) <- e
  end

let grow a len = Array.append a (Array.make len 0)

let add_entry ws ~pe ~time ~hops ~cost ~parent =
  let e = ws.n_entries in
  if (e + 1) * stride > Array.length ws.entries then
    ws.entries <- grow ws.entries (Array.length ws.entries);
  let base = e * stride in
  ws.entries.(base + f_pe) <- pe;
  ws.entries.(base + f_time) <- time;
  ws.entries.(base + f_hops) <- hops;
  ws.entries.(base + f_cost) <- cost;
  ws.entries.(base + f_parent) <- parent;
  ws.n_entries <- e + 1;
  if ws.heap_len = Array.length ws.heap then
    ws.heap <- grow ws.heap (Array.length ws.heap);
  ws.heap_len <- ws.heap_len + 1;
  sift_up ws (ws.heap_len - 1) e

let pop ws =
  let top = ws.heap.(0) in
  ws.heap_len <- ws.heap_len - 1;
  if ws.heap_len > 0 then sift_down ws 0 ws.heap.(ws.heap_len);
  top

(* Offer [pe] as a hop reached at [time] or later: it takes its earliest
   free slot and is queued only when that improves on the best (hops,
   cost, time) already queued for [pe] in this search.  Superseded
   entries stay queued and are expanded when popped. *)
let push ws ~hops ~cost ~time pe parent =
  let t = earliest_free ws pe time in
  if t >= 0 then begin
    let cost =
      match ws.hop_cost with Some f -> cost + f pe t | None -> cost
    in
    let better =
      ws.stamp.(pe) <> ws.searches
      || hops < ws.best_h.(pe)
      || hops = ws.best_h.(pe)
         && (cost < ws.best_c.(pe) || (cost = ws.best_c.(pe) && t < ws.best_t.(pe)))
    in
    if better then begin
      ws.stamp.(pe) <- ws.searches;
      ws.best_h.(pe) <- hops;
      ws.best_c.(pe) <- cost;
      ws.best_t.(pe) <- t;
      add_entry ws ~pe ~time:t ~hops ~cost ~parent
    end
  end

(* Queue every neighbour of [from] (itself included) that is inside the
   page range and may read [from]'s RF. *)
let relax ws from ~hops ~cost ~time parent =
  let nb = ws.fab.nbrs.(from) in
  for i = 0 to Array.length nb - 1 do
    let pe = nb.(i) in
    if allowed ws pe && reaches ws.fab from pe then push ws ~hops ~cost ~time pe parent
  done

let rec path ws e acc =
  if e < 0 then acc
  else
    path ws (field ws e f_parent)
      ({ Mapping.pe = ws.fab.pes.(field ws e f_pe); time = field ws e f_time } :: acc)

let rec expand ws =
  if ws.heap_len = 0 then None
  else begin
    let e = pop ws in
    ws.expansions <- ws.expansions + 1;
    let pe = field ws e f_pe and t = field ws e f_time in
    (* every queued hop already fits the deadline (t <= last) *)
    if reaches ws.fab pe ws.dst then Some (path ws e [])
    else begin
      let hops = field ws e f_hops in
      if hops < ws.max_hops then
        relax ws pe ~hops:(hops + 1) ~cost:(field ws e f_cost) ~time:(t + 1) e;
      expand ws
    end
  end

(* Whether some final-hop PE can exist: a goal-adjacent neighbour of the
   destination inside the page range with a free slot late enough to be
   reached from [src] (one cycle per unit of distance, at least one hop)
   and early enough to be read by the deadline. *)
let rec goal_open ws ~src ~src_time i =
  let nb = ws.fab.nbrs.(ws.dst) in
  i < Array.length nb
  && (let pe = nb.(i) in
      (allowed ws pe
      && reaches ws.fab pe ws.dst
      &&
      earliest_free ws pe (src_time + max 1 (dist ws.fab src pe)) >= 0)
      || goal_open ws ~src ~src_time (i + 1))

let route ws ~gen ~lo_page ~hi_page ~(src : Mapping.placement) ~dst_pe ~deadline
    ~max_hops =
  let fab = ws.fab in
  let s = Grid.index fab.grid src.pe and d = Grid.index fab.grid dst_pe in
  if reaches fab s d && deadline >= src.time + 1 then Some []
  else begin
    ws.gen <- gen;
    ws.lo_page <- lo_page;
    ws.hi_page <- hi_page;
    ws.dst <- d;
    ws.last <- deadline - 1;
    ws.max_hops <- max_hops;
    (* Infeasibility prechecks: each hop is one mesh move and one cycle,
       and the final hop must sit on or next to [dst_pe], so a chain
       needs at least [max 1 (manhattan - 1)] hops and as many cycles
       before the [deadline] read.  The scheduler probes many candidates
       whose edges cannot route; rejecting those without a search is
       cheaper than an exhausted one. *)
    let need = max 1 (dist fab s d - 1) in
    if
      need > max_hops
      || deadline < src.time + need + 1
      || not (goal_open ws ~src:s ~src_time:src.time 0)
    then None
    else begin
      ws.searches <- ws.searches + 1;
      ws.n_entries <- 0;
      ws.heap_len <- 0;
      relax ws s ~hops:1 ~cost:0 ~time:(src.time + 1) (-1);
      expand ws
    end
  end
