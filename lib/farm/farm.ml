module T = Cgra_trace.Trace
module Hist = Cgra_prof.Metrics.Hist
open Cgra_core

type shard_spec = { size : int; page_pes : int }

let default_fleet =
  [ { size = 4; page_pes = 4 }; { size = 6; page_pes = 4 };
    { size = 8; page_pes = 4 } ]

type dispatch = Least_loaded | Cost_aware

type params = {
  fleet : shard_spec list;
  n_tenants : int;
  n_requests : int;
  offered_load : float;
  queue_bound : int;
  max_resident : int;
  seed : int;
  policy : Allocator.policy;
  reconfig_cost : float;
  dispatch : dispatch;
  epoch : float;
}

let default_params =
  {
    fleet = default_fleet;
    n_tenants = 4;
    n_requests = 200;
    offered_load = 1.0;
    queue_bound = 8;
    max_resident = 8;
    seed = 0;
    policy = Allocator.Cost_halving;
    reconfig_cost = 0.0;
    dispatch = Least_loaded;
    epoch = 64.0;
  }

(* The at-scale configuration (ROADMAP: tens of shards, 10^4+ requests).
   Eight of each fabric size keeps the compile cost at three unique
   architectures while giving the coordinator 24 engines whose wake-ups
   it orders every epoch. *)
let big_fleet =
  List.concat_map
    (fun size -> List.init 8 (fun _ -> { size; page_pes = 4 }))
    [ 4; 6; 8 ]

let big_params =
  { default_params with fleet = big_fleet; n_tenants = 8; n_requests = 10_000 }

(* The request mix: the video-serving story the paper's introduction
   motivates — motion compensation, colour conversion, deinterlacing. *)
let mix = [| "mpeg"; "yuv2rgb"; "sobel" |]
let min_iterations = 40
let max_iterations = 120

type terminal = Retired | Rejected

type request = {
  rid : int;
  tenant : int;
  kernel : string;
  iterations : int;
  arrival : float;
  mutable shard : int;  (* -1 until admitted *)
  mutable dispatched : float;  (* nan until admitted *)
  mutable resident_at : float;  (* nan until first page grant *)
  mutable retired_at : float;  (* nan until finished *)
  mutable terminal : terminal option;
}

type shard_report = {
  s_index : int;
  s_spec : shard_spec;
  s_pages : int;
  s_served : int;
  s_busy_cycles : float;  (* sum of (retired - dispatched) over its requests *)
  s_epochs : int;  (* epochs in which the shard stepped at least one event *)
  s_os : Os_sim.result_t;
}

type report = {
  params : params;
  offered : int;
  retired : int;
  rejected : int;
  makespan : float;
  epochs : int;  (* coordinator sync boundaries processed *)
  throughput : float;  (* retired requests per 1000 cycles *)
  latency : Hist.summary;  (* arrival -> retire, cycles *)
  queue_wait : Hist.summary;  (* arrival -> dispatch, cycles *)
  log : (int * int * int * float) list;  (* rid, tenant, shard, time; retirement order *)
  requests : request list;  (* arrival order, final states *)
  shard_reports : shard_report list;
  farm_events : T.event list;
  shard_events : T.event list list;
}

type shard = {
  index : int;
  spec : shard_spec;
  total_pages : int;
  suite : Binary.t list;
  engine : Os_sim.Engine.t;
  strace : T.t;
  mutable active_epochs : int;
  mutable active_in : int;  (* last epoch counted in [active_epochs] *)
  mutable served : int;
  mutable busy_cycles : float;
}

let ( let* ) = Result.bind

let validate p =
  if p.fleet = [] then Error "farm: empty fleet"
  else if p.n_tenants < 1 then Error "farm: need at least one tenant"
  else if p.n_requests < 0 then Error "farm: negative request count"
  else if not (p.offered_load > 0.0 && Float.is_finite p.offered_load) then
    Error "farm: offered load must be a positive finite number"
  else if p.queue_bound < 1 then Error "farm: queue bound must be >= 1"
  else if p.max_resident < 1 then Error "farm: max resident must be >= 1"
  else if not (p.reconfig_cost >= 0.0 && Float.is_finite p.reconfig_cost) then
    Error "farm: reconfig cost must be a non-negative finite number"
  else if not (p.epoch > 0.0 && Float.is_finite p.epoch) then
    Error "farm: epoch must be a positive number of cycles"
  else Ok ()

(* Nominal per-shard service rate: the mean full-allocation service time
   of the request mix.  [offered_load = 1.0] then offers exactly the
   fleet's aggregate capacity under this (optimistic — no queueing, no
   shrinking) model, so loads above 1 saturate by construction. *)
let mean_iters = float_of_int (min_iterations + max_iterations) /. 2.0

let find_binary suite name =
  List.find_opt (fun (b : Binary.t) -> b.name = name) suite

let shard_service_cycles suite =
  let total =
    Array.fold_left
      (fun acc name ->
        match find_binary suite name with
        | Some b ->
            acc
            +. (float_of_int
                  (Binary.iteration_cycles b ~pages:(Binary.pages_used b))
               *. mean_iters)
        | None -> acc)
      0.0 mix
  in
  total /. float_of_int (Array.length mix)

let run ?pool ?(traced = false) p =
  let* () = validate p in
  let ftrace = if traced then T.make () else T.null in
  let* shards =
    let rec build i acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest -> (
          match Cgra_arch.Cgra.standard ~size:spec.size ~page_pes:spec.page_pes with
          | None ->
              Error
                (Printf.sprintf "farm: bad shard spec %dx%d (page %d PEs)"
                   spec.size spec.size spec.page_pes)
          | Some arch ->
              let* suite = Binary.compile_suite ~seed:p.seed ?pool arch in
              let strace = if traced then T.make () else T.null in
              let engine =
                Os_sim.Engine.create ~policy:p.policy
                  ~reconfig_cost:p.reconfig_cost ~trace:strace ~suite
                  ~total_pages:(Cgra_arch.Cgra.n_pages arch) ~mode:Os_sim.Multi ()
              in
              build (i + 1)
                ({ index = i; spec; total_pages = Cgra_arch.Cgra.n_pages arch;
                   suite; engine; strace; active_epochs = 0; active_in = 0;
                   served = 0; busy_cycles = 0.0 }
                :: acc)
                rest)
    in
    build 0 [] p.fleet
  in
  (* open-loop Poisson-style arrivals on the virtual clock *)
  let rng = Cgra_util.Rng.create ~seed:p.seed in
  let capacity =
    List.fold_left (fun acc s -> acc +. (1.0 /. shard_service_cycles s.suite))
      0.0 shards
  in
  let mean_gap = 1.0 /. (p.offered_load *. capacity) in
  let* () =
    (* a finite load can still underflow the rate on this fleet *)
    if mean_gap > 0.0 && Float.is_finite mean_gap then Ok ()
    else Error "farm: offered load out of range for this fleet"
  in
  let requests =
    let rec gen i t acc =
      if i = p.n_requests then Array.of_list (List.rev acc)
      else begin
        let t = t +. Cgra_util.Rng.exponential rng ~mean:mean_gap in
        let tenant = Cgra_util.Rng.int rng p.n_tenants in
        let kernel = mix.(Cgra_util.Rng.int rng (Array.length mix)) in
        let iterations =
          Cgra_util.Rng.int_in rng min_iterations max_iterations
        in
        gen (i + 1) t
          ({ rid = i; tenant; kernel; iterations; arrival = t; shard = -1;
             dispatched = Float.nan; resident_at = Float.nan;
             retired_at = Float.nan; terminal = None }
          :: acc)
      end
    in
    gen 0 0.0 []
  in
  T.emit_at ftrace ~time:0.0
    (T.Farm_begin
       { shards = List.length shards; tenants = p.n_tenants;
         queue_bound = p.queue_bound; max_resident = p.max_resident;
         requests = p.n_requests });
  let shard_arr = Array.of_list shards in
  let queues = Array.init p.n_tenants (fun _ -> Queue.create ()) in
  let latency_h = Hist.create () in
  let queue_wait_h = Hist.create () in
  let retired = ref 0 in
  let rejected = ref 0 in
  let rev_log = ref [] in
  let n_epochs = ref 0 in
  (* Engine callbacks act directly: they fire in event order during the
     replay below (or inside a dispatch's submit), and they touch only
     coordinator records, never an engine. *)
  let on_grant shard_idx rid time =
    let r = requests.(rid) in
    if Float.is_nan r.resident_at then begin
      r.resident_at <- time;
      T.emit_at ftrace ~time (T.Farm_resident { req = rid; shard = shard_idx })
    end
  in
  let on_finish rid time =
    let r = requests.(rid) in
    let s = shard_arr.(r.shard) in
    r.retired_at <- time;
    r.terminal <- Some Retired;
    s.served <- s.served + 1;
    s.busy_cycles <- s.busy_cycles +. (time -. r.dispatched);
    incr retired;
    rev_log := (rid, r.tenant, r.shard, time) :: !rev_log;
    Hist.observe latency_h (time -. r.arrival);
    Hist.observe queue_wait_h (r.dispatched -. r.arrival);
    T.emit_at ftrace ~time
      (T.Farm_retire
         { req = rid; tenant = r.tenant; shard = r.shard;
           latency = time -. r.arrival })
  in
  List.iter
    (fun s ->
      Os_sim.Engine.set_on_grant s.engine (on_grant s.index);
      Os_sim.Engine.set_on_finish s.engine on_finish)
    shards;
  (* Per-shard state the coordinator reads, refreshed only after it
     steps or submits to that shard (the only moves that change it):
     the next wake-up, nan when the shard's queue is empty, and the
     dispatch key (in-flight requests, used-page fraction). *)
  let n_shards = Array.length shard_arr in
  let wake = Array.make n_shards Float.nan in
  let in_flight = Array.make n_shards 0 in
  let used = Array.make n_shards 0.0 in
  let refresh s =
    wake.(s.index) <-
      (match Os_sim.Engine.next_event s.engine with
      | Some t -> t
      | None -> Float.nan);
    in_flight.(s.index) <- Os_sim.Engine.in_flight s.engine;
    used.(s.index) <- Os_sim.Engine.used_page_fraction s.engine
  in
  Array.iter refresh shard_arr;
  (* Load-aware dispatch order: fewest in-flight requests, then least
     allocated fabric, then lowest index.  A shard at [max_resident] is
     no candidate, nor is one the current tenant's walk has [tried].
     [next_candidate] is one argmin over the cached keys (strict
     comparisons in index order keep the lowest index on ties); a tenant
     walks the order by repeated argmin, marking each unaffordable shard
     tried, so nothing is sorted and [Least_loaded] costs one argmin. *)
  let tried = Array.make n_shards false in
  let next_candidate () =
    let best = ref (-1) in
    for i = 0 to n_shards - 1 do
      if in_flight.(i) < p.max_resident && not tried.(i) then
        if !best < 0 then best := i
        else
          let b = !best in
          if
            in_flight.(i) < in_flight.(b)
            || in_flight.(i) = in_flight.(b)
               && Float.compare used.(i) used.(b) < 0
          then best := i
    done;
    !best
  in
  (* Cost-aware deferral: dispatching a request whose binary does not fit
     in the shard's free pages forces the allocator to shrink residents —
     each squeezed page is a PageMaster reshape priced at
     [reconfig_cost].  When that price exceeds the time until the shard
     next wakes up (its events are finishes and regrants, i.e. chances
     for pages to free up), queueing is the cheaper move and the grant is
     deferred to a later boundary.  At [reconfig_cost = 0] the estimate
     is always 0, so the policy degenerates to [Least_loaded] exactly. *)
  let affordable s (r : request) now =
    match p.dispatch with
    | Least_loaded -> true
    | Cost_aware -> (
        match find_binary s.suite r.kernel with
        | None -> true
        | Some b ->
            let need = Binary.pages_used b in
            let free = Os_sim.Engine.free_pages s.engine in
            if free >= need then true
            else
              let reshape =
                p.reconfig_cost *. float_of_int (need - free)
              in
              let wait =
                match Os_sim.Engine.next_event s.engine with
                | Some t -> t -. now
                | None -> 0.0
              in
              reshape <= wait)
  in
  (* the first shard in dispatch order that [r] can afford, -1 if none;
     every shard it passes over is left marked [tried] *)
  let rec first_affordable r now =
    let i = next_candidate () in
    if i < 0 || affordable shard_arr.(i) r now then i
    else begin
      tried.(i) <- true;
      first_affordable r now
    end
  in
  let dispatch r (s : shard) now =
    r.shard <- s.index;
    r.dispatched <- now;
    T.emit_at ftrace ~time:now
      (T.Farm_admit { req = r.rid; tenant = r.tenant; shard = s.index });
    Os_sim.Engine.submit s.engine ~at:now
      {
        Thread_model.id = r.rid;
        segments =
          [ Thread_model.Kernel { kernel = r.kernel; iterations = r.iterations } ];
      };
    refresh s
  in
  (* drain tenant queues (tenant order, FIFO within a tenant) while some
     shard has admission capacity; a tenant whose head request is
     deferred by the cost model is skipped, not popped, so per-tenant
     FIFO order is preserved *)
  let rec try_dispatch now =
    (* no engine moves until a dispatch ends the scan, so the keys every
       tenant's walk reads are those of the boundary *)
    let rec scan tid =
      if tid >= p.n_tenants then false
      else if Queue.is_empty queues.(tid) then scan (tid + 1)
      else begin
        let r = Queue.peek queues.(tid) in
        Array.fill tried 0 n_shards false;
        let i = first_affordable r now in
        if i >= 0 then begin
          ignore (Queue.take queues.(tid));
          dispatch r shard_arr.(i) now;
          true
        end
        else if Array.exists Fun.id tried then scan (tid + 1)
        else
          (* no shard was even a candidate: every one is at
             [max_resident], so no tenant can dispatch *)
          false
      end
    in
    if scan 0 then try_dispatch now
  in
  let admit (r : request) =
    T.emit_at ftrace ~time:r.arrival
      (T.Farm_request
         { req = r.rid; tenant = r.tenant; kernel = r.kernel;
           iterations = r.iterations });
    let q = queues.(r.tenant) in
    if Queue.length q >= p.queue_bound then begin
      r.terminal <- Some Rejected;
      incr rejected;
      T.emit_at ftrace ~time:r.arrival
        (T.Farm_reject
           { req = r.rid; tenant = r.tenant; queue_depth = Queue.length q })
    end
    else Queue.add r q
  in
  (* The epoch-stepped coordinator: one replay of each window (t, t'] in
     event order, then dispatch at t'.  The replay takes the earliest
     pending event first: a shard wake-up (lowest shard index on equal
     times, stepped one event at a time so its callbacks act in order) or
     an arrival (admitted to its tenant queue), a shard event before an
     arrival at the same time.  Admission control then runs at the
     boundary, submitting new work at exactly t'.  Dispatch reads only
     boundary-time state, so the run is a pure function of the seed and
     the epoch length.  t' stretches beyond t + epoch when nothing (no
     event, no arrival) lands earlier, so idle stretches cost one epoch,
     and an arrival into an idle fleet is dispatched at its exact arrival
     time. *)
  let ai = ref 0 in
  (* the shard with the earliest wake-up, lowest index on ties; -1 when
     every shard is idle *)
  let earliest () =
    let best = ref (-1) in
    for i = 0 to Array.length wake - 1 do
      let t = wake.(i) in
      if (not (Float.is_nan t)) && (!best < 0 || t < wake.(!best)) then
        best := i
    done;
    !best
  in
  let arrival () =
    if !ai < Array.length requests then requests.(!ai).arrival else Float.nan
  in
  let rec replay t' =
    let i = earliest () in
    let a = arrival () in
    if i >= 0 && wake.(i) <= t' && not (a < wake.(i)) then begin
      let s = shard_arr.(i) in
      if s.active_in <> !n_epochs then begin
        s.active_in <- !n_epochs;
        s.active_epochs <- s.active_epochs + 1
      end;
      ignore (Os_sim.Engine.step s.engine);
      refresh s;
      replay t'
    end
    else if a <= t' then begin
      admit requests.(!ai);
      incr ai;
      replay t'
    end
  in
  let rec loop t =
    let i = earliest () in
    let a = arrival () in
    let next = if i < 0 || a < wake.(i) then a else wake.(i) in
    if not (Float.is_nan next) then begin
      let t' = Float.max (t +. p.epoch) next in
      incr n_epochs;
      replay t';
      try_dispatch t';
      loop t'
    end
  in
  loop 0.0;
  let makespan =
    Array.fold_left
      (fun acc r ->
        let acc = Float.max acc r.arrival in
        if Float.is_nan r.retired_at then acc else Float.max acc r.retired_at)
      0.0 requests
  in
  T.emit_at ftrace ~time:makespan
    (T.Farm_end { makespan; retired = !retired; rejected = !rejected });
  let shard_reports =
    List.map
      (fun s ->
        {
          s_index = s.index;
          s_spec = s.spec;
          s_pages = s.total_pages;
          s_served = s.served;
          s_busy_cycles = s.busy_cycles;
          s_epochs = s.active_epochs;
          s_os = Os_sim.Engine.result s.engine;
        })
      shards
  in
  Ok
    {
      params = p;
      offered = p.n_requests;
      retired = !retired;
      rejected = !rejected;
      makespan;
      epochs = !n_epochs;
      throughput =
        (if makespan > 0.0 then float_of_int !retired /. makespan *. 1000.0
         else 0.0);
      latency = Hist.summary latency_h;
      queue_wait = Hist.summary queue_wait_h;
      log = List.rev !rev_log;
      requests = Array.to_list requests;
      shard_reports;
      farm_events = T.events ftrace;
      shard_events = List.map (fun s -> T.events s.strace) shards;
    }

let dispatch_name = function
  | Least_loaded -> "least-loaded"
  | Cost_aware -> "cost-aware"

let render ?(log = false) (r : report) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let p = r.params in
  pf "farm: %d shards (%s), %d tenants, %d requests, load %.2f, seed %d\n"
    (List.length p.fleet)
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%dx%d" s.size s.size) p.fleet))
    p.n_tenants p.n_requests p.offered_load p.seed;
  pf
    "  policy %s, dispatch %s, reconfig cost %.0f, queue bound %d, max \
     resident %d, epoch %.0f\n"
    (match p.policy with
    | Allocator.Halving -> "halving"
    | Allocator.Repack_equal -> "repack"
    | Allocator.Cost_halving -> "cost")
    (dispatch_name p.dispatch) p.reconfig_cost p.queue_bound p.max_resident
    p.epoch;
  pf "  retired %d, rejected %d, makespan %.0f cycles, %d epochs\n" r.retired
    r.rejected r.makespan r.epochs;
  pf "  throughput %.3f req/kcycle\n" r.throughput;
  pf "  latency    p50 %.0f  p90 %.0f  p99 %.0f  max %.0f cycles\n"
    r.latency.Hist.p50 r.latency.Hist.p90 r.latency.Hist.p99 r.latency.Hist.max;
  pf "  queue wait p50 %.0f  p90 %.0f  p99 %.0f  max %.0f cycles\n"
    r.queue_wait.Hist.p50 r.queue_wait.Hist.p90 r.queue_wait.Hist.p99
    r.queue_wait.Hist.max;
  List.iter
    (fun s ->
      pf "  shard %d (%dx%d, %d pages): served %d, busy %.0f cycles, util %.3f\n"
        s.s_index s.s_spec.size s.s_spec.size s.s_pages s.s_served
        s.s_busy_cycles s.s_os.Os_sim.page_utilization)
    r.shard_reports;
  if log then begin
    pf "retirements:\n";
    List.iter
      (fun (rid, tenant, shard, time) ->
        pf "  r%-4d tenant %d shard %d at %.0f\n" rid tenant shard time)
      r.log
  end;
  Buffer.contents b

(* The front-end observability report: where coordinator epochs landed,
   how much of each shard's fabric was in use, and how uneven the
   (steal-free) load ended up — dispatch is final, work never migrates,
   so max/mean page utilization is the true imbalance, not a sampling
   artifact.  Busy cycles sum request residences, which overlap on a
   shard, so they are reported as cycles and never as a fraction. *)
let render_stats (r : report) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "epochs: %d boundaries (epoch %.0f cycles, makespan %.0f)\n" r.epochs
    r.params.epoch r.makespan;
  let util s = s.s_os.Os_sim.page_utilization in
  let utils = List.map util r.shard_reports in
  let mean_util =
    List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils)
  in
  let max_util = List.fold_left Float.max 0.0 utils in
  List.iter
    (fun s ->
      pf
        "  shard %-2d (%dx%d): active epochs %-5d (%.3f of %d)  busy %8.0f \
         cycles  page util %.3f  served %d\n"
        s.s_index s.s_spec.size s.s_spec.size s.s_epochs
        (if r.epochs > 0 then float_of_int s.s_epochs /. float_of_int r.epochs
         else 0.0)
        r.epochs s.s_busy_cycles (util s) s.s_served)
    r.shard_reports;
  pf "  load imbalance (max/mean page util, steal-free): %.3f\n"
    (if mean_util > 0.0 then max_util /. mean_util else 1.0);
  Buffer.contents b
