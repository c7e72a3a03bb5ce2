type placement = { col : int; time : int }

type result_t = {
  n : int;
  m : int;
  ii_p : int;
  iterations : int;
  place : placement array array;
  case_two_hop : int;
  case_one_hop : int;
  case_zero_hop : int;
  fallbacks : int;
  dep_violations : int;
  makespan : int;
  steady_ii : float;
}

(* Column occupancy: a growable bitmap per column. *)
module Col = struct
  type t = { mutable busy : bool array }

  let create () = { busy = Array.make 64 false }

  let ensure t i =
    if i >= Array.length t.busy then begin
      let bigger = Array.make (max (i + 1) (2 * Array.length t.busy)) false in
      Array.blit t.busy 0 bigger 0 (Array.length t.busy);
      t.busy <- bigger
    end

  let take_earliest t ~after =
    let rec go i =
      ensure t i;
      if t.busy.(i) then go (i + 1)
      else begin
        t.busy.(i) <- true;
        i
      end
    in
    go (max 0 after)

  let count_below t ~limit =
    let c = ref 0 in
    for i = 0 to min (limit - 1) (Array.length t.busy - 1) do
      if t.busy.(i) then incr c
    done;
    !c
end

(* The folded-ring sequence of the initialization: p_0, p_{N-1}, p_1,
   p_{N-2}, ... — ring neighbours end up at most two positions apart. *)
let folded_sequence n =
  let seq = Array.make n 0 in
  let lo = ref 1 and hi = ref (n - 1) in
  let i = ref 1 in
  let take_hi = ref true in
  while !i < n do
    if !take_hi then begin
      seq.(!i) <- !hi;
      decr hi
    end
    else begin
      seq.(!i) <- !lo;
      incr lo
    end;
    take_hi := not !take_hi;
    incr i
  done;
  seq

let replay ~n ~m ~ii_p ~iterations =
  let steps = iterations * ii_p in
  let place = Array.init steps (fun _ -> Array.make n { col = -1; time = -1 }) in
  let cols = Array.init m (fun _ -> Col.create ()) in
  let case_two = ref 0 and case_one = ref 0 and case_zero = ref 0 in
  let fallbacks = ref 0 and violations = ref 0 in
  (* --- schedule initialization: first page-iteration --- *)
  let seq = folded_sequence n in
  let full_rows = n / m in
  let tail = n mod m in
  Array.iteri
    (fun k page ->
      if k < full_rows * m then begin
        let row = k / m in
        let j = k mod m in
        let col = if row mod 2 = 0 then j else m - 1 - j in
        let time = Col.take_earliest cols.(col) ~after:row in
        place.(0).(page) <- { col; time }
      end
      else begin
        (* tails: stacked in the column where the serpentine turned *)
        let col = if full_rows mod 2 = 0 then m - 1 else 0 in
        let time = Col.take_earliest cols.(col) ~after:full_rows in
        place.(0).(page) <- { col; time }
      end)
    seq;
  ignore tail;
  (* --- fill the rest, pages in reverse of their init order --- *)
  let reverse_order = Array.of_list (List.rev (Array.to_list seq)) in
  for step = 1 to steps - 1 do
    Array.iter
      (fun page ->
        let dep_ring = place.(step - 1).(((page - 1) + n) mod n) in
        let dep_self = place.(step - 1).(page) in
        let d1 = dep_ring.col and d2 = dep_self.col in
        let after = max dep_ring.time dep_self.time in
        let pick col =
          let time = Col.take_earliest cols.(col) ~after:(after + 1) in
          place.(step).(page) <- { col; time }
        in
        let diff = abs (d1 - d2) in
        if diff = 2 then begin
          incr case_two;
          pick ((d1 + d2) / 2)
        end
        else if diff = 1 then begin
          (* the paper: this case only happens at column 0 or M-1; when
             both dependency columns are edges (M = 2) the paper leaves
             the choice open — balance by column load *)
          let edges =
            List.filter (fun c -> c = d1 || c = d2) [ 0; m - 1 ]
            |> List.sort_uniq compare
          in
          match edges with
          | [] ->
              (* outside the paper's cases: nearest feasible column *)
              incr fallbacks;
              pick (min d1 d2)
          | [ c ] ->
              incr case_one;
              pick c
          | cs ->
              incr case_one;
              let load c = Col.count_below cols.(c) ~limit:(after + 1 + (2 * ii_p * n)) in
              let best =
                List.fold_left
                  (fun acc c ->
                    match acc with
                    | Some (_, l0) when l0 <= load c -> acc
                    | Some _ | None -> Some (c, load c))
                  None cs
              in
              (match best with Some (c, _) -> pick c | None -> assert false)
        end
        else if diff = 0 then begin
          incr case_zero;
          let candidates =
            List.filter (fun c -> c >= 0 && c < m) [ d1 - 1; d1 + 1; d1 ]
          in
          let best =
            List.fold_left
              (fun acc c ->
                let load = Col.count_below cols.(c) ~limit:(after + 1 + (2 * ii_p * n)) in
                match acc with
                | Some (_, l0) when l0 <= load -> acc
                | Some _ | None -> Some (c, load))
              None candidates
          in
          match best with Some (c, _) -> pick c | None -> assert false
        end
        else begin
          (* dependencies drifted more than two columns apart: the
             constraint set is empty; place between them, flagged *)
          incr fallbacks;
          incr violations;
          pick ((d1 + d2) / 2)
        end)
      reverse_order;
    (* constraint audit for this step *)
    Array.iter
      (fun page ->
        let p = place.(step).(page) in
        let dep_ring = place.(step - 1).(((page - 1) + n) mod n) in
        let dep_self = place.(step - 1).(page) in
        if
          abs (p.col - dep_ring.col) > 1
          || abs (p.col - dep_self.col) > 1
          || p.time <= dep_ring.time
          || p.time <= dep_self.time
        then incr violations)
      reverse_order
  done;
  let makespan =
    1
    + Array.fold_left
        (fun acc row -> Array.fold_left (fun a (p : placement) -> max a p.time) acc row)
        0 place
  in
  (* steady-state II: growth of the per-iteration finish time over the
     second half of the horizon *)
  let finish iter =
    let t = ref 0 in
    for s = iter * ii_p to ((iter + 1) * ii_p) - 1 do
      Array.iter (fun (p : placement) -> t := max !t p.time) place.(s)
    done;
    !t
  in
  let mid = iterations / 2 in
  let steady_ii =
    float_of_int (finish (iterations - 1) - finish mid)
    /. float_of_int (max 1 (iterations - 1 - mid))
  in
  {
    n;
    m;
    ii_p;
    iterations;
    place;
    case_two_hop = !case_two;
    case_one_hop = !case_one;
    case_zero_hop = !case_zero;
    fallbacks = !fallbacks;
    dep_violations = !violations;
    makespan;
    steady_ii;
  }

let run ~n ~m ~ii_p ~iterations =
  if m < 1 || m > n then
    Error (Printf.sprintf "greedy: need 1 <= M <= N, got M = %d with N = %d" m n)
  else if ii_p < 1 then Error (Printf.sprintf "greedy: need II_p >= 1, got %d" ii_p)
  else if iterations < 2 then
    Error (Printf.sprintf "greedy: need at least 2 iterations, got %d" iterations)
  else Ok (replay ~n ~m ~ii_p ~iterations)
