(** Faithful reproduction of the paper's Algorithm 1 — the greedy
    PageMaster placement (Section VI-D, Fig. 7).

    The algorithm works at pure page granularity: an [N]-page ring
    schedule with initiation interval [II_p] is replayed page-iteration by
    page-iteration onto [M] page-columns.  The first iteration is laid out
    as a folded ring along a serpentine through the columns (with tail
    pages in an edge column); every later page placement is decided by the
    three PlacePage cases from the column distance of its two
    dependencies (two hops apart / one hop at an edge / zero hops for
    tails).

    The paper presents the algorithm for an unrolled stream and does not
    specify how the pattern closes into a finite modulo schedule, so this
    module {e measures} the steady-state II over a configurable horizon
    and checks the paper's constraints on every placement (see DESIGN.md);
    the runtime uses the provably periodic {!Transform.fold} instead. *)

type placement = { col : int; time : int }

type result_t = {
  n : int;
  m : int;
  ii_p : int;
  iterations : int;  (** kernel iterations replayed *)
  place : placement array array;
      (** [place.(step).(page)] with [step = iter * ii_p + t] *)
  case_two_hop : int;
  case_one_hop : int;
  case_zero_hop : int;
  fallbacks : int;
      (** placements where none of the paper's three cases applied and a
          nearest feasible column was used instead *)
  dep_violations : int;
      (** placements violating the one-column/strictly-later constraint —
          0 in every configuration we test *)
  makespan : int;  (** last occupied time + 1 *)
  steady_ii : float;
      (** measured cycles per kernel iteration over the second half of
          the horizon; compare with [Transform.ii_q] *)
}

val run :
  n:int -> m:int -> ii_p:int -> iterations:int -> (result_t, string) result
(** [Error] (a ["greedy: ..."] message naming the bad value) unless
    [1 <= m <= n], [ii_p >= 1] and [iterations >= 2]. *)
