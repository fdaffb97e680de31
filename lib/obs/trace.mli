(** Span tracer exporting Chrome trace-event JSON.

    Collects nested spans (request → run → batch → item → stage → RPC
    call / EVM emulation frame) and writes them in the Chrome
    [traceEvents] format, loadable in [about:tracing] and
    {{:https://ui.perfetto.dev}Perfetto}.

    There is one tracing model: every span is recorded live, where the
    work happens, stamped in {e seconds} by the recorder's clock (the
    writer converts to the microseconds the format wants).  With the
    default {!Clock.real} every span in a collector — daemon requests,
    engine runs, batches, items and stages, RPC attempts, EVM frames —
    lies on one wall-clock timeline.  A span's track ([tid]) is the
    worker that did the work (0 = the coordinator).  Spans recorded
    under a request context carry [trace_id]/[span_id]/[parent_span_id]
    args, so a request's tree can be pulled out with
    {!span_tree_json}.  All recording is thread-safe; events are kept in
    arrival order with a sequence number. *)

type t

val create : ?clock:Clock.t -> unit -> t
(** A fresh collector.  [clock] (default {!Clock.real}) serves
    {!with_span} and {!now}. *)

val now : t -> float
(** Read the collector's clock, in seconds. *)

val complete :
  ?pid:int ->
  ?tid:int ->
  ?cat:string ->
  ?args:(string * Report.Json.t) list ->
  t ->
  name:string ->
  ts:float ->
  dur:float ->
  unit
(** Record a complete ("X") span: [ts] start and [dur] duration in
    seconds.  [tid] (default 0) selects the track; [cat] (default
    ["proxion"]) the category; [args] become the span's argument
    object. *)

val instant :
  ?pid:int ->
  ?tid:int ->
  ?cat:string ->
  ?args:(string * Report.Json.t) list ->
  t ->
  name:string ->
  ts:float ->
  unit
(** Record an instant ("i") event. *)

val with_span :
  ?tid:int ->
  ?cat:string ->
  ?args:(string * Report.Json.t) list ->
  t ->
  string ->
  (unit -> 'a) ->
  'a
(** Run a thunk inside a span timed with the collector's clock.  The
    span is recorded even if the thunk raises. *)

val count : t -> int
(** Number of events recorded so far. *)

(** {1 Span contexts}

    Request-scoped correlation ids, splitmix64-derived so they are
    deterministic for a given seed.  A context is a
    [(trace_id, span_id)] pair of 64-bit ids rendered as 16 lowercase
    hex characters on the wire; child spans derive their [span_id] from
    the parent's, keeping the whole tree reproducible. *)

type ctx = { trace_id : int64; span_id : int64 }

type gen
(** A seeded generator of root contexts (thread-safe). *)

val gen : seed:int -> gen
val next_ctx : gen -> ctx
(** The next root context in the generator's splitmix64 stream. *)

val child : ctx -> index:int -> ctx
(** Deterministic child context: same [trace_id], [span_id] derived
    from the parent's span id and the 0-based child [index]. *)

val id_to_hex : int64 -> string
(** 16 lowercase hex characters, zero-padded. *)

val id_of_hex : string -> int64 option
(** Inverse of {!id_to_hex}; [None] unless exactly 16 lowercase hex
    characters. *)

val ctx_args : ?parent:ctx -> ctx -> (string * Report.Json.t) list
(** The [trace_id]/[span_id] (and [parent_span_id], when [parent] is
    given) argument fields identifying a span. *)

(** {1 Span handles}

    A handle for a span opened and closed around work with the
    collector's clock (the daemon's request spans).  It carries its
    context in the span args, so a request's child spans can be joined
    across processes by [trace_id]. *)

type span

val start_span :
  ?tid:int ->
  ?cat:string ->
  ?parent:span ->
  ?parent_ctx:ctx ->
  ?ctx:ctx ->
  t ->
  string ->
  span
(** Open a live span.  [ctx] pins the context explicitly; otherwise a
    child context is derived from [parent], or (neither given) a root
    context is derived from the clock.  [parent_ctx] records a
    cross-process parent (a client's context carried on the wire) when
    [ctx] is explicit and no local parent span exists.  [cat] defaults
    to ["request"]. *)

val span_ctx : span -> ctx

val finish_span : ?args:(string * Report.Json.t) list -> span -> unit
(** Record the span as a complete event with its context args ([args]
    appended).  Idempotent: only the first call records. *)

val span_tree_json : t -> trace_id:string -> Report.Json.t
(** All recorded events whose args carry the given [trace_id] (16 hex
    chars), in arrival order, as a JSON list.  The flat list plus the
    [parent_span_id] links encode the span tree; used by the daemon's
    slow-request log. *)

val micros : float -> Report.Json.t
(** Seconds as trace-format microseconds: an integer JSON value when
    the microsecond count is whole (byte-stable), a float otherwise. *)

val to_json : t -> Report.Json.t
(** The full [{"traceEvents": [...], "displayTimeUnit": "ms"}] object. *)

val write : t -> out_channel -> unit
(** [to_json] serialized to a channel, with a trailing newline. *)
