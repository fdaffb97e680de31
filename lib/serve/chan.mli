(** A multi-producer/multi-consumer closeable channel: the daemon's
    listener feeds accepted connections through one to its worker
    domains.  [pop] blocks until an element arrives or the channel has
    been closed {e and} drained: a close never drops queued elements —
    consumers drain everything in flight before their [pop] returns
    [None].

    Waking is deliberately minimal: [push] signals exactly one sleeping
    consumer (one element can satisfy at most one of them — a broadcast
    would stampede the whole idle pool through the mutex), and only
    [close] broadcasts, because every blocked consumer must observe
    it. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit

val close : 'a t -> unit
(** Idempotent; wakes every blocked [pop]. *)

val pop : 'a t -> 'a option
(** Block for the next element; [None] once closed and empty. *)

val length : 'a t -> int
