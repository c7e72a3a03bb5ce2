(** Purely functional min-priority queue (pairing heap).

    Used by the discrete-event system simulator ([Cgra_core.Os_sim]).
    Priorities are compared with a
    user-supplied total order; ties are broken by insertion sequence so
    event processing is deterministic. *)

type ('p, 'a) t
(** Queue with priorities ['p] and payloads ['a]. *)

val empty : cmp:('p -> 'p -> int) -> ('p, 'a) t
(** Empty queue ordered by [cmp]. *)

val is_empty : ('p, 'a) t -> bool

val size : ('p, 'a) t -> int
(** Number of elements; O(1). *)

val push : ('p, 'a) t -> 'p -> 'a -> ('p, 'a) t
(** [push q p x] inserts [x] with priority [p]; O(1). *)

val pop : ('p, 'a) t -> (('p * 'a) * ('p, 'a) t) option
(** Removes a minimum-priority element; among equal priorities the earliest
    insertion wins.  O(log n) amortized. *)

val peek : ('p, 'a) t -> ('p * 'a) option
(** Minimum-priority element without removing it. *)

val of_list : cmp:('p -> 'p -> int) -> ('p * 'a) list -> ('p, 'a) t

val to_sorted_list : ('p, 'a) t -> ('p * 'a) list
(** All elements in popping order; consumes O(n log n) time. *)
