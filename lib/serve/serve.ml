(** Analysis-as-a-service: the resident query daemon.

    - {!Wire}: length-prefixed JSON-RPC framing, methods, error codes.
    - {!Store}: the indexed in-memory result store with per-subject
      cost attribution.
    - {!Tracker}: the dirty-set model behind incremental re-analysis.
    - {!Advance}: deterministic scripted chain advances (watch mode's
      synthetic feed).
    - {!Daemon}: the server itself — accept loop, worker domains,
      incremental increments, journal snapshots, Obs wiring.
    - {!Client}/{!Loadgen}: the thin client and the benchmark driver.
    - {!Chan}: the closeable channel feeding connections to workers.

    See doc/API.md for the wire protocol specification. *)

module Wire = Wire
module Store = Store
module Tracker = Tracker
module Advance = Advance
module Daemon = Daemon
module Client = Client
module Loadgen = Loadgen
module Ops = Ops
module Chan = Chan

module Config = Daemon.Config
(** Re-export: [Serve.Config] is the daemon's builder-style config. *)
