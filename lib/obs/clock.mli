(** The one clock abstraction: every timing the system takes and every
    wait it simulates goes through a [t].

    Production timing reads {!real} (a thin wrapper over
    [Unix.gettimeofday]).  A {e virtual} clock's reads are a pure
    function of how often it has been read and how far it has been
    advanced, which serves two purposes:
    - {e observation}: tests pin stage timings, batch durations and log
      timestamps to exact, reproducible values;
    - {e waiting}: the resilience layer (retry backoff, injected
      latency, circuit-breaker cooldowns) "sleeps" with {!advance}
      instead of blocking, so a fault-injected run costs no wall-clock
      time and replays identically on any machine. *)

type t

val real : t
(** [now] reads [Unix.gettimeofday]. *)

val virtual_ : ?start:float -> ?auto_step:float -> unit -> t
(** A deterministic clock starting at [start] (default 0).  Every {!now}
    read returns the current value and then advances it by [auto_step]
    (default 0) — with a non-zero step, consecutive reads are strictly
    increasing and any start/stop bracket measures exactly [auto_step]
    seconds per intervening read.  Reads and advances are serialized
    under a mutex, so a virtual clock is safe to share across worker
    domains (though cross-domain read interleavings are scheduling
    dependent; deterministic tests read from one domain). *)

val now : t -> float
(** Current time in seconds. *)

val advance : t -> float -> unit
(** Move a virtual clock forward by a non-negative delta (negative
    deltas are ignored) — the only "sleep" the system performs.  No-op
    on {!real}. *)

val is_virtual : t -> bool
