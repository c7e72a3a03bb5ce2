(** Compiled kernel "binaries": what the OS ships to the CGRA.

    Each kernel is compiled twice for a given fabric — with the original
    (unconstrained) compiler and with the paging constraints — exactly as
    in the paper's experimental setup.  The single-threaded system runs
    the unconstrained binary; the multithreaded system runs the paged one
    and shrinks it with the PageMaster transformation as needed. *)

type t = private {
  name : string;
  graph : Cgra_dfg.Graph.t;
  base : Cgra_mapper.Mapping.t;  (** unconstrained mapping, [II_b] *)
  paged : Cgra_mapper.Mapping.t;  (** paging-constrained mapping, [II_c] *)
  n_pages : int;  (** [Mapping.n_pages_used paged], computed by {!make} *)
}
(** [private] so that {!make} is the only constructor: a binary's page
    footprint is fixed at compile time, and a record built field by
    field could carry a count that disagrees with its [paged] mapping. *)

val make :
  name:string ->
  graph:Cgra_dfg.Graph.t ->
  base:Cgra_mapper.Mapping.t ->
  paged:Cgra_mapper.Mapping.t ->
  t
(** Builds a binary and counts the pages its paged mapping occupies,
    once.  The compiler and the on-disk store's loader both build
    through here. *)

val ii_base : t -> int

val ii_paged : t -> int

val pages_used : t -> int
(** Pages the paged mapping occupies — what the thread gets when the CGRA
    is otherwise idle.  O(1): reads the count {!make} computed. *)

val iteration_cycles : t -> pages:int -> int
(** Cycles per kernel iteration when the thread holds [pages] pages:
    [ii_paged * ceil (pages_used / pages)], clamped at [ii_paged] when
    the allocation covers the whole schedule ([Transform.ii_q]).  O(1),
    so the OS simulator prices every grant and reshape without walking
    the mapping. *)

val compile :
  ?seed:int ->
  ?pool:Cgra_util.Pool.t ->
  ?trace:Cgra_trace.Trace.t ->
  Cgra_arch.Cgra.t ->
  Cgra_kernels.Kernels.t ->
  (t, string) result
(** Two-tier memoization: results are looked up in the in-process memo
    (keyed on architecture fingerprint x kernel name x seed), then in
    the installed on-disk store tier if any ({!set_store}, normally
    wired by [Cgra_store.install]), and only then compiled — so a warm
    store makes thread launch a disk read instead of a scheduler run.
    Compilation is deterministic per key — including at any [pool]
    width, since the raced scheduler is bit-identical to the sequential
    one — so cached and fresh results are interchangeable and the pool
    width is not part of the key; both tiers are safe to share across
    domains.  With [pool], both scheduler runs race their (II, attempt)
    ladders across its domains ({!Cgra_mapper.Scheduler.map}).

    A compile shares the unconstrained baseline across page sizes.  That
    search never sees pages: it reads the grid and the memory ports, and
    the register file only in the final [Mapping.validate] of each
    attempt.  So every binary in the in-memory memo holds the baseline
    for its (grid, memory ports per row, kernel name, seed) and its rf
    capacity.  A compile reuses the one with the nearest capacity no
    smaller than its own, re-stamped with its own arch, when that
    mapping validates on it; otherwise it searches.  This is exact in
    any compile order: every attempt the donor's ladder rejected is
    rejected again with fewer registers (validation only gets
    stricter), so a winner that still validates is the fabric's own
    first success.  Compiling a grid's page sizes in ascending order
    therefore searches each baseline once (the standard fabrics' rf
    capacity falls as pages grow); descending order shares nothing.
    The reuse keeps no table of its own: finding a donor scans the memo.

    With [trace], tier outcomes bump the [binary.cache.{mem_hit,
    disk_hit, compile, store}] counters, and each reused baseline bumps
    [binary.cache.base_shared]. *)

val compile_suite :
  ?seed:int ->
  ?pool:Cgra_util.Pool.t ->
  ?trace:Cgra_trace.Trace.t ->
  Cgra_arch.Cgra.t ->
  (t list, string) result
(** Compile the full 11-kernel suite; fails if any kernel fails to map
    (treated as a bug by the test-suite), short-circuiting on the first
    failing kernel in suite order — later kernels are not compiled.
    With [pool], each kernel's scheduling ladder is raced across the
    pool's domains, one kernel at a time; the suite order — and on
    failure, {e which} error is reported (the first kernel's, in suite
    order) — is unchanged. *)

val fingerprint : Cgra_arch.Cgra.t -> string
(** The architecture component of the cache key: the canonical,
    golden-tested {!Cgra_arch.Cgra.fingerprint} — {e not} the pretty
    printer, whose output may drift cosmetically. *)

type store_tier = {
  tier_load : seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> t option;
  tier_save : seed:int -> Cgra_arch.Cgra.t -> Cgra_kernels.Kernels.t -> t -> unit;
}
(** A persistent second cache tier.  [tier_load] returns [None] for
    missing, corrupt, or version-mismatched artifacts (the cache then
    falls through to a compile); [tier_save] must be atomic and
    best-effort (a failed save must not fail the compile). *)

val set_store : store_tier option -> unit
(** Install (or remove) the disk tier consulted between the in-memory
    memo and the compiler.  [Cgra_store.install] is the usual caller. *)

type stats = { mem_hits : int; disk_hits : int; compiles : int; stores : int }

val stats : unit -> stats
(** Per-tier outcome counts since start-up or the last {!reset_stats}:
    [compiles] counts binaries the compiler built (one whose baseline
    was shared still ran its paged search), so a fully warm start shows
    [compiles = 0]. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] — hits across both tiers, misses = [compiles]. *)

val reset_stats : unit -> unit
(** Zero the counters (the caches themselves are untouched). *)

val clear_cache : unit -> unit
(** Drop the in-memory memo, and with it every baseline a later compile
    could share, so the next compile of every key is cold (the disk
    tier, if any, is untouched). *)
