(** Priority queue of timed events, ordered by time with FIFO tie-breaking.

    Implemented as a binary min-heap over parallel arrays, so pushing and
    popping allocate nothing (beyond the occasional doubling). Events
    scheduled at the same instant fire in insertion order, which keeps
    simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event at the given time. *)

val min_time : 'a t -> float
(** Time of the earliest event. @raise Invalid_argument on an empty queue. *)

val pop_exn : 'a t -> 'a
(** Remove and return the earliest event (whose time is {!min_time}).
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, if any. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)
