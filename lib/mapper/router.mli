(** Operand routing through intermediate PEs.

    When a consumer is not within register-file reach of its producer
    (same PE or a mesh neighbour), the value is relayed through routing
    PEs: each hop occupies one schedule slot exclusively and
    re-materializes the value in its own register file, where it can wait
    any number of cycles for the next hop (the paper's routing PEs
    "can only transfer input data to [their] outputs").

    The search is a best-first expansion over PE indices in (fewest
    hops, least hop cost, earliest arrival, earliest push) order,
    assigning each hop the earliest free modulo slot after its
    predecessor.  It runs in the scheduler's innermost loop, so it
    allocates only the chain it returns:

    - a {!fabric} holds the per-compile tables: PE coordinates by
      index, neighbour lists, the page of each PE, and the reach
      relation as an n×n byte table (the kind's same-page and
      cross-page rules folded in);
    - a {!workspace} belongs to one scheduling attempt.  It reads the
      attempt's occupancy and tentative-hop overlay in place and keeps
      the search state — generation-stamped best keys per PE, an int
      binary heap, parent-pointer hop entries — across searches. *)

type fabric

val fabric :
  Cgra_arch.Grid.t ->
  pes:Cgra_arch.Coord.t array ->
  page:int array ->
  reach:(Cgra_arch.Coord.t -> Cgra_arch.Coord.t -> bool) ->
  fabric
(** [fabric grid ~pes ~page ~reach] tabulates [grid].  [pes] lists its
    PEs in row-major order (as {!Cgra_arch.Grid.all_pes}) and is kept,
    not copied; [page] maps each row-major PE index to its page ([-1]
    when unpaged).  [reach a b]
    says whether a value in [a]'s register file may be read by [b], both
    between hops and for the final read by the consumer. *)

val min_lead : fabric -> int -> int -> max_hops:int -> int
(** [min_lead fab s d ~max_hops] is the least [deadline - src.time] at
    which {!route} from row-major PE index [s] to a reader at [d] can
    succeed, by the rules that ignore occupancy: 1 when [d] reads [s]
    directly, else one cycle per needed hop ([max 1 (manhattan - 1)])
    plus the read; [-1] when that hop count exceeds [max_hops], so no
    deadline suffices.  {!route} rejects every call below this bound
    without searching, and the scheduler uses the same bound to skip,
    once per node placement, every (PE, time) candidate of an edge that
    could not route — so both read one definition. *)

type workspace

val workspace :
  fabric ->
  ii:int ->
  occupied:Bytes.t ->
  overlay:int array ->
  ?hop_cost:(int -> int -> int) ->
  unit ->
  workspace
(** [workspace fab ~ii ~occupied ~overlay ()] searches over the caller's
    modulo reservation table: slot [t] of PE index [pe] is free when
    byte [pe * ii + t mod ii] of [occupied] is ['\000'] and the same
    entry of [overlay] differs from the search's [gen].  Both are read,
    never written.  [hop_cost pe t] (default none: every cost is 0) is a
    secondary price charged per hop slot: with it the search minimizes
    (hops, total cost, arrival time) lexicographically, and without it
    the order is the plain fewest-hops/earliest-arrival one.  The
    bandwidth-aware scheduler uses it to steer routing chains away from
    (row, slot) pairs whose memory-port budget is nearly spent. *)

val route :
  workspace ->
  gen:int ->
  lo_page:int ->
  hi_page:int ->
  src:Mapping.placement ->
  dst_pe:Cgra_arch.Coord.t ->
  deadline:int ->
  max_hops:int ->
  Mapping.placement list option
(** [route ws ~gen ~lo_page ~hi_page ~src ~dst_pe ~deadline ~max_hops]
    returns a hop chain (possibly empty when the consumer can read the
    producer directly) such that the consumer at [dst_pe] can read the
    final value at time [deadline].  Hops stay on PEs whose page lies in
    [\[lo_page, hi_page\]] ([min_int, max_int] for no restriction) and
    on slots not overlaid with [gen].  [None] when no chain of at most
    [max_hops] hops exists.  Schedule times are non-negative. *)

val searches : workspace -> int
(** Best-first searches run so far: calls of {!route} that neither read
    directly nor were rejected by the cheap infeasibility prechecks
    ({!min_lead}, then a free final-hop slot next to the reader). *)

val expansions : workspace -> int
(** Heap pops over all searches so far. *)
