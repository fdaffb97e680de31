module Json = Report.Json

type event = {
  ev_name : string;
  ev_cat : string;
  ev_phase : string; (* "X" complete, "i" instant *)
  ev_ts : float; (* seconds *)
  ev_dur : float; (* seconds; 0 for instants *)
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * Json.t) list;
  ev_seq : int;
}

type t = {
  clock : Clock.t;
  lock : Mutex.t;
  mutable events : event list; (* reverse arrival order *)
  mutable next_seq : int;
}

let create ?(clock = Clock.real) () =
  { clock; lock = Mutex.create (); events = []; next_seq = 0 }

let now t = Clock.now t.clock

let record t ~name ~cat ~phase ~ts ~dur ~pid ~tid ~args =
  Mutex.lock t.lock;
  t.events <-
    {
      ev_name = name;
      ev_cat = cat;
      ev_phase = phase;
      ev_ts = ts;
      ev_dur = dur;
      ev_pid = pid;
      ev_tid = tid;
      ev_args = args;
      ev_seq = t.next_seq;
    }
    :: t.events;
  t.next_seq <- t.next_seq + 1;
  Mutex.unlock t.lock

let complete ?(pid = 1) ?(tid = 0) ?(cat = "proxion") ?(args = []) t ~name ~ts
    ~dur =
  record t ~name ~cat ~phase:"X" ~ts ~dur:(Float.max 0.0 dur) ~pid ~tid ~args

let instant ?(pid = 1) ?(tid = 0) ?(cat = "proxion") ?(args = []) t ~name ~ts =
  record t ~name ~cat ~phase:"i" ~ts ~dur:0.0 ~pid ~tid ~args

let with_span ?tid ?cat ?args t name f =
  let t0 = Clock.now t.clock in
  let finish () = complete ?tid ?cat ?args t ~name ~ts:t0 ~dur:(Clock.now t.clock -. t0) in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count t =
  Mutex.lock t.lock;
  let n = t.next_seq in
  Mutex.unlock t.lock;
  n

(* ------------------------------------------------------------------ *)
(* Span contexts.                                                      *)
(* ------------------------------------------------------------------ *)

(* splitmix64, inlined: lib/obs sits below lib/dataset in the build, so
   it cannot reuse Dataset.Prng.  Same constants, same stream. *)
let splitmix64 (x : int64) : int64 =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

type ctx = { trace_id : int64; span_id : int64 }

let id_to_hex (id : int64) = Printf.sprintf "%016Lx" id

let is_hex_id s =
  String.length s = 16
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s

let id_of_hex s = if is_hex_id s then Some (Int64.of_string ("0x" ^ s)) else None

type gen = { mutable g_state : int64; g_lock : Mutex.t }

let gen ~seed = { g_state = Int64.of_int seed; g_lock = Mutex.create () }

let next_ctx g =
  Mutex.lock g.g_lock;
  let s1 = Int64.add g.g_state 1L in
  let s2 = Int64.add s1 1L in
  g.g_state <- s2;
  Mutex.unlock g.g_lock;
  { trace_id = splitmix64 s1; span_id = splitmix64 s2 }

let child ctx ~index =
  {
    ctx with
    span_id = splitmix64 (Int64.logxor ctx.span_id (Int64.of_int (index + 1)));
  }

let ctx_args ?parent ctx =
  [
    ("trace_id", Json.String (id_to_hex ctx.trace_id));
    ("span_id", Json.String (id_to_hex ctx.span_id));
  ]
  @
  match parent with
  | Some p -> [ ("parent_span_id", Json.String (id_to_hex p.span_id)) ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* Live spans.                                                         *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_trace : t;
  sp_ctx : ctx;
  sp_parent : ctx option;
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_ts : float;
  mutable sp_children : int;
  mutable sp_finished : bool;
}

let start_span ?(tid = 0) ?(cat = "request") ?parent ?parent_ctx ?ctx t name =
  let parent_ctx, ctx =
    match (ctx, parent) with
    | Some c, Some p -> (Some p.sp_ctx, c)
    | Some c, None -> (parent_ctx, c)
    | None, Some p ->
        let index = p.sp_children in
        p.sp_children <- index + 1;
        (Some p.sp_ctx, child p.sp_ctx ~index)
    | None, None ->
        (* Root span with no supplied context: derive one from the clock
           so virtual-clock runs stay deterministic. *)
        let s = Int64.bits_of_float (Clock.now t.clock) in
        (None, { trace_id = splitmix64 s; span_id = splitmix64 (splitmix64 s) })
  in
  {
    sp_trace = t;
    sp_ctx = ctx;
    sp_parent = parent_ctx;
    sp_name = name;
    sp_cat = cat;
    sp_tid = tid;
    sp_ts = Clock.now t.clock;
    sp_children = 0;
    sp_finished = false;
  }

let span_ctx sp = sp.sp_ctx

let finish_span ?(args = []) sp =
  if not sp.sp_finished then begin
    sp.sp_finished <- true;
    let t = sp.sp_trace in
    complete ~tid:sp.sp_tid ~cat:sp.sp_cat
      ~args:(ctx_args ?parent:sp.sp_parent sp.sp_ctx @ args)
      t ~name:sp.sp_name ~ts:sp.sp_ts
      ~dur:(Clock.now t.clock -. sp.sp_ts)
  end

(* Timestamps are whole microseconds where possible so the JSON stays
   integer-valued and byte-stable; fractional values are kept exact —
   Perfetto accepts them, and the nesting invariants (span end inside
   parent) would break under rounding. *)
let us_json us =
  if Float.is_integer us && Float.abs us < 1e15 then Json.Int (int_of_float us)
  else Json.Float us

let micros s = us_json (s *. 1e6)

let event_json ev =
  (* [dur] is the difference of the two converted endpoints, so a reader
     summing ts + dur gets exactly the converted end: at wall-clock
     magnitudes (~1e15 us) converting the start and the duration apart
     would round a child's end past its parent's. *)
  let ts = ev.ev_ts *. 1e6 in
  Json.Obj
    ([
       ("name", Json.String ev.ev_name);
       ("cat", Json.String ev.ev_cat);
       ("ph", Json.String ev.ev_phase);
       ("ts", us_json ts);
     ]
    @ (if ev.ev_phase = "X" then
         [ ("dur", us_json (((ev.ev_ts +. ev.ev_dur) *. 1e6) -. ts)) ]
       else [])
    @ [ ("pid", Json.Int ev.ev_pid); ("tid", Json.Int ev.ev_tid) ]
    @ (if ev.ev_phase = "i" then [ ("s", Json.String "t") ] else [])
    @ match ev.ev_args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let to_json t =
  Mutex.lock t.lock;
  let events = List.rev t.events in
  Mutex.unlock t.lock;
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json events));
      ("displayTimeUnit", Json.String "ms");
    ]

let write t oc =
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n'

let events_for t ~trace_id =
  Mutex.lock t.lock;
  let events = List.rev t.events in
  Mutex.unlock t.lock;
  List.filter
    (fun ev ->
      List.exists
        (fun (k, v) -> k = "trace_id" && v = Json.String trace_id)
        ev.ev_args)
    events

let span_tree_json t ~trace_id =
  (* Flat list in arrival order; parent_span_id args encode the tree.
     Used by the slow-request log, so the shape must be line-friendly. *)
  Json.List (List.map event_json (events_for t ~trace_id))
