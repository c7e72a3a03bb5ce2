type task = Run of (unit -> unit) | Stop

type t = {
  pool_width : int;
  tasks : task Queue.t;
  lock : Mutex.t;
  pending : Condition.t;
  mutable helpers : unit Domain.t list;
  mutable live : bool;
}

let env_var = "CGRA_DOMAINS"

let domains_from_env () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)

let width t = t.pool_width

(* Helper domains loop on the task queue.  [Run] closures are the
   per-batch work loops built by [run_batch]; they never raise (task
   exceptions are captured per item) and return once the batch's item
   counter is exhausted, so executing a stale closure from an already
   completed batch is a no-op. *)
let rec worker t =
  let task =
    Mutex.lock t.lock;
    let rec await () =
      match Queue.take_opt t.tasks with
      | Some tk -> tk
      | None ->
          Condition.wait t.pending t.lock;
          await ()
    in
    let tk = await () in
    Mutex.unlock t.lock;
    tk
  in
  match task with
  | Stop -> ()
  | Run f ->
      f ();
      worker t

let create ?(clamp = true) ?domains () =
  let requested = max 1 (Option.value ~default:(domains_from_env ()) domains) in
  (* Clamp to the machine: domains beyond the core count cannot add
     throughput, but every active domain joins each minor-GC handshake,
     so oversubscribing cores turns each collection into a wait on
     descheduled peers — a pure slowdown.  Results never depend on the
     width (the determinism contract), so clamping is unobservable apart
     from the wall clock.  [clamp:false] keeps the requested width even
     beyond the core count: determinism tests use it to force real
     cross-domain execution on small machines (capped at 64 so a typo
     cannot spawn thousands of domains). *)
  let w =
    if clamp then min requested (Domain.recommended_domain_count ())
    else min requested 64
  in
  let t =
    {
      pool_width = w;
      tasks = Queue.create ();
      lock = Mutex.create ();
      pending = Condition.create ();
      helpers = [];
      live = true;
    }
  in
  if w > 1 then
    t.helpers <- List.init (w - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  if t.live then begin
    t.live <- false;
    Mutex.lock t.lock;
    List.iter (fun _ -> Queue.push Stop t.tasks) t.helpers;
    Condition.broadcast t.pending;
    Mutex.unlock t.lock;
    List.iter Domain.join t.helpers;
    t.helpers <- []
  end

let with_pool ?clamp ?domains f =
  let t = create ?clamp ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body 0 .. body (n-1)] across the pool.  Items are claimed from an
   atomic counter; the caller works its own batch and then waits for the
   last in-flight item.  [body] must not raise.  The completion counter's
   atomic updates publish each item's (plain) result writes to the
   caller. *)
let run_batch t n ~body =
  if n > 0 then begin
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let fin_lock = Mutex.create () in
    let fin = Condition.create () in
    let step () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          body i;
          let done_ = 1 + Atomic.fetch_and_add completed 1 in
          if done_ = n then begin
            Mutex.lock fin_lock;
            Condition.broadcast fin;
            Mutex.unlock fin_lock
          end;
          go ()
        end
      in
      go ()
    in
    let helpers = min (t.pool_width - 1) (n - 1) in
    if helpers > 0 then begin
      Mutex.lock t.lock;
      for _ = 1 to helpers do
        Queue.push (Run step) t.tasks
      done;
      Condition.broadcast t.pending;
      Mutex.unlock t.lock
    end;
    step ();
    Mutex.lock fin_lock;
    while Atomic.get completed < n do
      Condition.wait fin fin_lock
    done;
    Mutex.unlock fin_lock
  end

let map t f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  if t.pool_width <= 1 || n <= 1 then Array.to_list (Array.map f xs)
  else begin
    let out = Array.make n None in
    let errs = Array.make n None in
    run_batch t n ~body:(fun i ->
        match f xs.(i) with
        | y -> out.(i) <- Some y
        | exception e -> errs.(i) <- Some (e, Printexc.get_raw_backtrace ()));
    (* re-raise the earliest failure: the one a sequential run hits first *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errs;
    List.init n (fun i -> Option.get out.(i))
  end

(* Speculative race: evaluate candidates until the lowest-indexed success
   is known.  [best] holds the lowest succeeding index found so far; a
   candidate whose index is above it can no longer win, so it is skipped
   at claim time and [doomed] lets a long-running task notice mid-flight.
   Every index below the eventual winner is always fully evaluated (skips
   only happen above a recorded success), which is what makes the result
   deterministic. *)
let race_poll t f xs =
  match xs with
  | [] -> None
  | _ when t.pool_width <= 1 ->
      (* lazy sequential fallback: nothing past the winner runs at all *)
      let doomed () = false in
      let rec go = function
        | [] -> None
        | x :: rest -> (
            match f ~doomed x with Some y -> Some (x, y) | None -> go rest)
      in
      go xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      let errs = Array.make n None in
      let best = Atomic.make n in
      let rec lower_best i =
        let b = Atomic.get best in
        if i < b && not (Atomic.compare_and_set best b i) then lower_best i
      in
      run_batch t n ~body:(fun i ->
          if i < Atomic.get best then
            let doomed () = i > Atomic.get best in
            match f ~doomed arr.(i) with
            | Some y ->
                results.(i) <- Some y;
                lower_best i
            | None -> ()
            | exception e -> errs.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      (* Resolve in input order: the first success or failure met is the
         one a sequential run would have met (later speculative outcomes
         are unreachable sequentially and are discarded). *)
      let rec resolve i =
        if i >= n then None
        else
          match errs.(i) with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> (
              match results.(i) with
              | Some y -> Some (arr.(i), y)
              | None -> resolve (i + 1))
      in
      resolve 0

let filter_map t f xs = List.filter_map Fun.id (map t f xs)
