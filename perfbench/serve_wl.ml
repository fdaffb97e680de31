(* The watch workload: `proxion serve` runs as a child process and the
   benchmark drives it over the wire protocol from one thread.

   Requests are sent open-loop: each has a due time fixed in advance and
   leaves the schedule when due whether or not earlier replies have come
   back; its latency runs from the due time to the reply.  Two
   connections carry the traffic, one request in flight on each (see
   [run_schedule] for why), and a due request waits in a client-side
   queue for a free one. *)

open Util
module G = Dataset.Generate
module W = Serve.Wire
module Address = Evm.Address

let exe = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "proxion_cli.exe" ]

(* A rate is generator-bound when the sender itself fell behind its
   schedule: the last tenth of the window's requests were noticed more
   than this late (median).  A slow daemon cannot cause that, since
   due requests are taken off the schedule whether or not a connection
   is free. *)
let generator_late_ms = 1.0

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* --- the daemon child ---------------------------------------------------- *)

type daemon = { pid : int; port : int; out : Unix.file_descr }

let children = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (restart_on_eintr (fun () -> Unix.waitpid [] pid))
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* No daemon outlives the benchmark, whatever path it exits by: an
   interrupt or termination signal exits through the same handler. *)
let () =
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let read_line fd ~deadline =
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0.0 then None
    else
      match restart_on_eintr (fun () -> Unix.select [ fd ] [] [] left) with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get b 0);
              go ())
  in
  go ()

let call ~port meth params =
  match Serve.Client.connect ~timeout_ms:60_000 ~port () with
  | Error e -> Error e
  | Ok c ->
      let r = Serve.Client.call c ~meth ~params in
      Serve.Client.close c;
      r

(* Spawn `proxion serve` and wait for a successful `ready` reply; returns
   the daemon and the seconds from spawn to ready. *)
let spawn ~name args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile
      (Filename.concat out_dir (Filename.concat "tmp" (name ^ ".stderr")))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: "--port" :: "0" :: args))
      Unix.stdin out_w err
  in
  children := pid :: !children;
  Unix.close out_w;
  Unix.close err;
  let fail msg =
    reap pid;
    Unix.close out_r;
    failwith (Printf.sprintf "daemon %s: %s" name msg)
  in
  match read_line out_r ~deadline:(t0 +. 150.0) with
  | None -> fail "exited or timed out before listening"
  | Some line -> (
      (* "proxion daemon listening on HOST:PORT (...)" *)
      match
        Scanf.sscanf_opt line "proxion daemon listening on %[^:]:%d" (fun _ p -> p)
      with
      | None -> fail ("unexpected banner: " ^ line)
      | Some port ->
          let rec ready () =
            match call ~port "ready" [] with
            | Ok j when field "ready" j = Some (Json.Bool true) -> ()
            | _ when now () -. t0 < 150.0 ->
                Unix.sleepf 0.005;
                ready ()
            | _ -> fail "never became ready"
          in
          ready ();
          ({ pid; port; out = out_r }, now () -. t0))

let stop d =
  ignore (call ~port:d.port "shutdown" []);
  reap d.pid;
  Unix.close d.out

(* Spawn [repeats] times, keep the last daemon; set-up time is the median. *)
let spawn_median ~repeats ~name ~before args =
  let rec go k acc =
    before ();
    let d, s = spawn ~name args in
    if k = 1 then (d, median (s :: acc))
    else begin
      stop d;
      go (k - 1) (s :: acc)
    end
  in
  go repeats []

(* --- daemon metrics ------------------------------------------------------ *)

let metrics_snapshot ~port =
  match call ~port "metrics" [ ("format", Json.String "json") ] with
  | Ok j -> (
      match field "metrics" j with Some (Json.List l) -> l | _ -> [])
  | Error _ -> []

(* Sum of [key] ("value", "sum" or "count") over a family's series whose
   labels include [labels]. *)
let family_total ?(labels = []) snap name key =
  List.fold_left
    (fun acc fam ->
      if field "name" fam <> Some (Json.String name) then acc
      else
        match field "series" fam with
        | Some (Json.List series) ->
            List.fold_left
              (fun acc s ->
                let matches =
                  List.for_all
                    (fun (k, v) ->
                      match field "labels" s with
                      | Some l -> field k l = Some (Json.String v)
                      | None -> false)
                    labels
                in
                if matches then acc +. Float.max 0.0 (num (field key s)) else acc)
              acc series
        | _ -> acc)
    0.0 snap

let delta ?labels before after name key =
  family_total ?labels after name key -. family_total ?labels before name key

(* --- the request mix ----------------------------------------------------- *)

(* The Loadgen mix: get_status, a list_findings page, then is_proxy /
   logic_history / collisions on a seeded address. *)
let mix rng addrs k =
  match k mod 5 with
  | 0 -> ("get_status", [])
  | 1 ->
      ( "list_findings",
        [ ("offset", Json.Int (Random.State.int rng 97)); ("limit", Json.Int 20) ] )
  | j ->
      let a = addrs.(Random.State.int rng (Array.length addrs)) in
      let meth = match j with 2 -> "is_proxy" | 3 -> "logic_history" | _ -> "collisions" in
      (meth, [ ("address", Json.String a) ])

(* --- the open-loop sender ------------------------------------------------ *)

type req = {
  due : float;
  conn : int;
  meth : string;
  frame : string;  (** The framed request, built before the run. *)
  ctx : Obs.Trace.ctx option;
}

let frame ?ctx ~id meth params =
  let trace =
    Option.map
      (fun (x : Obs.Trace.ctx) ->
        {
          W.tc_trace_id = Obs.Trace.id_to_hex x.trace_id;
          tc_span_id = Obs.Trace.id_to_hex x.span_id;
        })
      ctx
  in
  W.encode_frame (W.request_to_string ?trace ~id ~meth ~params ())

type conn = {
  fd : Unix.file_descr;
  outq : string Queue.t;
  mutable out_off : int;
  mutable inb : Bytes.t;
  mutable in_len : int;
  inflight : (req * float) Queue.t;
}

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    outq = Queue.create ();
    out_off = 0;
    inb = Bytes.create 65536;
    in_len = 0;
    inflight = Queue.create ();
  }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  let rec go () =
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.out_off in
        match Unix.single_write_substring c.fd s c.out_off len with
        | n when n = len ->
            ignore (Queue.pop c.outq);
            c.out_off <- 0;
            go ()
        | n -> c.out_off <- c.out_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
  in
  go ()

let be32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* Read what is available; hand every complete frame to [on_frame]. *)
let read_frames c on_frame =
  if Bytes.length c.inb - c.in_len < 65536 then begin
    let nb = Bytes.create (2 * Bytes.length c.inb) in
    Bytes.blit c.inb 0 nb 0 c.in_len;
    c.inb <- nb
  end;
  match Unix.read c.fd c.inb c.in_len (Bytes.length c.inb - c.in_len) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false
  | 0 -> false
  | n ->
      c.in_len <- c.in_len + n;
      let off = ref 0 in
      let continue = ref true in
      while !continue && c.in_len - !off >= 4 do
        let len = be32 c.inb !off in
        if c.in_len - !off - 4 >= len then begin
          on_frame (Bytes.sub_string c.inb (!off + 4) len);
          off := !off + 4 + len
        end
        else continue := false
      done;
      if !off > 0 then begin
        Bytes.blit c.inb !off c.inb 0 (c.in_len - !off);
        c.in_len <- c.in_len - !off
      end;
      true

type sample = { s_req : req; s_sent : float; s_recv : float; s_reply : string }

(* Send [sched] (sorted by due time) on [conns] and collect the replies,
   raw; they are parsed after the run, off the sending path.

   By default a connection carries one request at a time.  The daemon
   does not set TCP_NODELAY, so a pipelined connection can fall into a
   Nagle/delayed-ACK lockstep where every reply waits for the next
   request to carry the ACK; whether it does varies from run to run.
   Pipelined sending is kept for the [wire.pipelined_p50_ms] probe only.
   A due request waits in a client-side queue until its connection
   [conn] is free, and that wait counts in its latency.  With
   [~pipelined:true] every request is written the moment it is due,
   however many are in flight.

   Returns the replies, the generator's own lag per request (seconds
   from due time to the loop noticing it), and how many requests never
   got a reply within [drain_s] of the last due time. *)
let run_schedule ?(pipelined = false) ~conns ~(sched : req array) ~drain_s () =
  let n = Array.length sched in
  let lateness = Array.make n 0.0 in
  let own = Array.init (Array.length conns) (fun _ -> Queue.create ()) in
  let i = ref 0 and outstanding = ref 0 and broken = ref false in
  let give_up = (if n = 0 then now () else sched.(n - 1).due) +. drain_s in
  let replies = ref [] in
  let send c r =
    Queue.push r.frame c.outq;
    Queue.push (r, now ()) c.inflight;
    flush c
  in
  let dispatch () =
    Array.iteri
      (fun k c ->
        if Queue.is_empty c.inflight then Option.iter (send c) (Queue.take_opt own.(k)))
      conns
  in
  while (!i < n || !outstanding > 0) && now () < give_up && not !broken do
    let t = now () in
    while !i < n && sched.(!i).due <= t do
      let r = sched.(!i) in
      lateness.(!i) <- t -. r.due;
      incr outstanding;
      incr i;
      if pipelined then send conns.(r.conn) r else Queue.push r own.(r.conn)
    done;
    if not pipelined then dispatch ();
    let wait =
      if !i < n then Float.max 0.0 (sched.(!i).due -. now ())
      else Float.max 0.0 (Float.min 0.05 (give_up -. now ()))
    in
    let rfds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let wfds =
      Array.to_list conns
      |> List.filter (fun c -> not (Queue.is_empty c.outq))
      |> List.map (fun c -> c.fd)
    in
    let readable, writable, _ =
      try Unix.select rfds wfds [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.mem c.fd writable then flush c;
        if List.mem c.fd readable then
          let alive =
            read_frames c (fun payload ->
                let r, sent = Queue.pop c.inflight in
                decr outstanding;
                replies := { s_req = r; s_sent = sent; s_recv = now (); s_reply = payload } :: !replies)
          in
          if not alive then broken := true)
      conns
  done;
  (List.rev !replies, lateness, !outstanding)

(* Requests at a constant [rate] for [seconds], starting [lead] seconds
   from now, the [k]th on connection [conn_of k]. *)
let schedule ~conn_of ~rng ~addrs ~rate ~seconds ~lead ?ctxs () =
  let t0 = now () +. lead in
  let n = max 1 (int_of_float (rate *. seconds)) in
  Array.init n (fun k ->
      let meth, params = mix rng addrs k in
      let ctx = Option.map Obs.Trace.next_ctx ctxs in
      let frame = frame ?ctx ~id:k meth params in
      { due = t0 +. (float_of_int k /. rate); conn = conn_of k; meth; frame; ctx })

(* --- reply checking ------------------------------------------------------ *)

type tally = {
  mutable lat_ms : float list;  (** Due time to reply. *)
  mutable rtt_us : float list;  (** Send to reply. *)
  mutable ok : int;
  mutable bad : int;  (** Unparsable replies and error replies. *)
  mutable shed : int;
  mutable deadline : int;
  mutable adv : Json.t list;  (** advance results. *)
  mutable adv_lat_ms : float list;
  mutable adv_service_s : float list;
}

let tally () =
  {
    lat_ms = [];
    rtt_us = [];
    ok = 0;
    bad = 0;
    shed = 0;
    deadline = 0;
    adv = [];
    adv_lat_ms = [];
    adv_service_s = [];
  }

let record ?trace t s =
  let lat = (s.s_recv -. s.s_req.due) *. 1000.0 in
  Option.iter
    (fun tr ->
      Option.iter
        (fun ctx ->
          Obs.Trace.complete tr ~cat:"client" ~name:("client." ^ s.s_req.meth)
            ~ts:s.s_sent ~dur:(s.s_recv -. s.s_sent) ~args:(Obs.Trace.ctx_args ctx))
        s.s_req.ctx)
    trace;
  match W.response_of_string s.s_reply with
  | Error _ -> t.bad <- t.bad + 1
  | Ok { W.rs_result = Error e; _ } ->
      if e.W.code = W.err_overloaded then t.shed <- t.shed + 1
      else if e.W.code = W.err_deadline_exceeded then t.deadline <- t.deadline + 1
      else t.bad <- t.bad + 1
  | Ok { W.rs_result = Ok j; _ } -> (
      t.ok <- t.ok + 1;
      match s.s_req.meth with
      | "advance" ->
          t.adv <- j :: t.adv;
          t.adv_lat_ms <- lat :: t.adv_lat_ms;
          t.adv_service_s <- (s.s_recv -. s.s_sent) :: t.adv_service_s
      | meth ->
          t.lat_ms <- lat :: t.lat_ms;
          t.rtt_us <- ((s.s_recv -. s.s_sent) *. 1e6) :: t.rtt_us;
          if meth = "is_proxy" then
            match field "is_proxy" j with
            | Some (Json.Bool _) -> ()
            | _ -> t.bad <- t.bad + 1)

let errors t = t.bad + t.shed + t.deadline

(* --- in-process references ----------------------------------------------- *)

let landscape_config ~size ~lseed =
  let total = match size with `Full -> 4_000 | `Tiny -> 300 in
  { G.default_config with G.total; seed = lseed }

let cold_report (land_ : G.t) =
  let a = Proxion.Analyzer.create ~chain:land_.G.chain ~source:land_.G.source_of () in
  Proxion.Analyzer.submit_all a;
  Proxion.Analyzer.run a;
  Proxion.Analyzer.report a

(* Two workers, so reads and advances are served side by side; analysis
   at one domain, so an advance's time does not depend on where the
   scheduler puts a second domain on a two-core host. *)
let daemon_args ~size ~lseed extra =
  let cfg = landscape_config ~size ~lseed in
  [
    "-n"; string_of_int cfg.G.total; "--seed"; string_of_int lseed;
    "--workers"; "2"; "--domains"; "1";
  ]
  @ extra

(* Every labelled address of the landscape, as Loadgen's callers pass
   them; [mix] draws from it uniformly with the seeded rng. *)
let all_addresses (land_ : G.t) =
  Array.of_list (List.map (fun l -> Address.to_hex l.G.l_address) land_.G.labels)

let lateness_ms lateness = Array.to_list (Array.map (fun s -> s *. 1000.0) lateness)

(* Whether the sender fell behind its own schedule: the median lateness
   of the last tenth of the requests is over [generator_late_ms]. *)
let generator_bound lateness =
  let late = lateness_ms lateness in
  let n = List.length late in
  median (List.filteri (fun k _ -> k >= n - max 1 (n / 10)) late) > generator_late_ms

(* Per-method mean handler time from the daemon's request histogram. *)
let handle_layers before after =
  List.map
    (fun meth ->
      let labels = [ ("method", meth) ] in
      let sum = delta ~labels before after "proxion_serve_request_seconds" "sum" in
      let count = delta ~labels before after "proxion_serve_request_seconds" "count" in
      m ("serve.handle_us." ^ meth) (if count > 0.0 then 1e6 *. sum /. count else 0.0) "us")
    serve_methods

let shed_layers before after =
  [
    m "serve.shed"
      (delta before after "proxion_serve_shed_connections_total" "value"
      +. delta before after "proxion_serve_shed_requests_total" "value")
      "count";
    m "serve.deadline_exceeded"
      (delta before after "proxion_serve_deadline_exceeded_total" "value")
      "count";
  ]


let absorb ~into t =
  into.lat_ms <- t.lat_ms @ into.lat_ms;
  into.rtt_us <- t.rtt_us @ into.rtt_us;
  into.ok <- into.ok + t.ok;
  into.bad <- into.bad + t.bad;
  into.shed <- into.shed + t.shed;
  into.deadline <- into.deadline + t.deadline;
  into.adv <- t.adv @ into.adv;
  into.adv_lat_ms <- t.adv_lat_ms @ into.adv_lat_ms;
  into.adv_service_s <- t.adv_service_s @ into.adv_service_s

(* One blocking round trip returning the raw reply payload. *)
let raw_call ~port ~id meth =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      W.write_frame fd (W.request_to_string ~id ~meth ~params:[] ());
      W.read_frame ~max_frame:(1 lsl 30) fd)

(* --- watch --------------------------------------------------------------- *)

(* Payload without its 4-byte length prefix. *)
let payload_of_frame f = String.sub f 4 (String.length f - 4)

(* Reads written the moment each is due, however many are in flight on
   their connection, as the protocol allows.  Returns the tally and the
   number never answered. *)
let pipelined_probe ~port ~rng ~addrs =
  let conns = [| connect ~port; connect ~port |] in
  let sched =
    schedule ~conn_of:(fun k -> k mod 2) ~rng ~addrs ~rate:1000.0 ~seconds:1.0 ~lead:0.01 ()
  in
  let replies, _, lost = run_schedule ~pipelined:true ~conns ~sched ~drain_s:10.0 () in
  Array.iter close_conn conns;
  let t = tally () in
  List.iter (record t) replies;
  (t, lost)

(* Median in-process Serve.Daemon.handle time over [n] reads of the mix,
   on a daemon built in this process over the same landscape. *)
let in_process_handle_us ~lcfg ~rng ~addrs ~n =
  match Serve.Daemon.create (G.generate lcfg) with
  | Error e -> failwith ("in-process daemon: " ^ e)
  | Ok dd ->
      schedule ~conn_of:(fun _ -> 0) ~rng ~addrs ~rate:1000.0
        ~seconds:(float_of_int n /. 1000.0) ~lead:0.0 ()
      |> Array.to_list
      |> List.map (fun r ->
             let payload = payload_of_frame r.frame in
             snd (time (fun () -> Serve.Daemon.handle dd payload)) *. 1e6)
      |> median

let advance_spec = { Serve.Advance.deployments = 3; upgrades = 2; reorg_depth = 3 }
let advance_interval = 0.5
let watch_query_rate = 300.0

type window = {
  w_tally : tally;
  w_advances : int;  (** Advances sent. *)
  w_lateness : float array;
  w_lost : int;
  w_before : Json.t list;  (** Daemon metrics around the window. *)
  w_after : Json.t list;
  w_journal_bytes : int;
}

(* Advances on connection 0 on a fixed schedule, the query mix at a fixed
   rate on connection 1. *)
let watch_window ?trace ?ctxs ~d ~journal ~rng ~addrs ~seconds () =
  let before = metrics_snapshot ~port:d.port in
  let conns = [| connect ~port:d.port; connect ~port:d.port |] in
  let jsize0 = (Unix.stat journal).Unix.st_size in
  let queries =
    schedule ~conn_of:(fun _ -> 1) ~rng ~addrs ~rate:watch_query_rate ~seconds
      ~lead:0.01 ?ctxs ()
  in
  let t0 = queries.(0).due in
  let n_adv = max 1 (int_of_float (seconds /. advance_interval)) in
  let ctxs_adv = Array.init n_adv (fun _ -> Option.map Obs.Trace.next_ctx ctxs) in
  let advances =
    Array.init n_adv (fun k ->
        {
          due = t0 +. (advance_interval *. (float_of_int k +. 0.25));
          conn = 0;
          meth = "advance";
          frame = frame ?ctx:(ctxs_adv.(k)) ~id:(-k) "advance" [ ("count", Json.Int 1) ];
          ctx = ctxs_adv.(k);
        })
  in
  let sched = Array.append queries advances in
  Array.stable_sort (fun a b -> compare a.due b.due) sched;
  let t = tally () in
  let replies, lateness, lost = run_schedule ~conns ~sched ~drain_s:60.0 () in
  List.iter (record ?trace t) replies;
  Array.iter close_conn conns;
  let after = metrics_snapshot ~port:d.port in
  {
    w_tally = t;
    w_advances = n_adv;
    w_lateness = lateness;
    w_lost = lost;
    w_before = before;
    w_after = after;
    w_journal_bytes = (Unix.stat journal).Unix.st_size - jsize0;
  }

let watch ~seed ~seconds ~trace ~size =
  let lseed = derive seed "landscape" and mseed = derive seed "mix" in
  let aseed = derive seed "advance" in
  let rng = Random.State.make [| mseed |] in
  let lcfg = landscape_config ~size ~lseed in
  let land_, generate_s = time (fun () -> G.generate lcfg) in
  let addrs = all_addresses land_ in
  let journal = Filename.concat out_dir (Filename.concat "tmp" "watch.jrnl") in
  let fresh_journal () = if Sys.file_exists journal then Sys.remove journal in
  let args =
    daemon_args ~size ~lseed
      [
        "--journal"; journal; "--journal-fsync"; "false";
        "--reorg-depth"; string_of_int advance_spec.Serve.Advance.reorg_depth;
        "--endpoints"; "3"; "--quorum"; "2";
        "--advance-seed"; string_of_int aseed;
      ]
  in
  (* A traced run reports no set-up time, so it spawns once. *)
  let d, setup_s =
    spawn_median ~repeats:(if trace then 1 else setup_repeats) ~name:"watch" ~before:fresh_journal args
  in
  (* A traced daemon writes a span for every re-analysed item, about
     10 MB per advance at this size, so its window is kept short. *)
  let traced_s = Float.min 5.0 (seconds /. 2.0) in
  let window_s = if trace then seconds -. traced_s else seconds in
  let w = watch_window ~d ~journal ~rng ~addrs ~seconds:window_s () in
  let t = w.w_tally in
  let rss = peak_rss_mb ~pid:(string_of_int d.pid) in
  (* A traced run measures a second daemon, spans on, for the layers,
     then probes pipelined reads on it; reads leave the store as it is. *)
  let d, traced, probe =
    if not trace then (d, None, None)
    else begin
      stop d;
      fresh_journal ();
      let trace_out = Filename.concat out_dir "watch-daemon-trace.json" in
      let d2, _ = spawn ~name:"watch-traced" (args @ [ "--trace-out"; trace_out ]) in
      let tr = Obs.Trace.create () in
      let ctxs = Obs.Trace.gen ~seed:(derive seed "trace") in
      let w = watch_window ~trace:tr ~ctxs ~d:d2 ~journal ~rng ~addrs ~seconds:traced_s () in
      ignore (write_trace tr "watch-client-trace.json");
      (d2, Some w, Some (pipelined_probe ~port:d2.port ~rng ~addrs))
    end
  in
  (* The gate: the daemon's report after its last advance against a cold
     in-process run over the regenerated landscape with the same advances
     replayed. *)
  let applied =
    match call ~port:d.port "get_status" [] with
    | Ok j -> int_of_float (num (field "advances" j))
    | Error _ -> -1
  in
  let wire_report = raw_call ~port:d.port ~id:1 "report" in
  stop d;
  let adv = Serve.Advance.create ~seed:aseed ~spec:advance_spec land_ in
  Serve.Advance.replay adv (max 0 applied);
  let expected =
    W.response_ok ~id:(Json.Int 1) (Proxion.Serialize.report_to_json (cold_report land_))
  in
  let report_ok = wire_report = Ok expected in
  let all = tally () in
  absorb ~into:all t;
  Option.iter (fun w2 -> absorb ~into:all w2.w_tally) traced;
  Option.iter (fun (p, _) -> absorb ~into:all p) probe;
  let windows = w :: Option.to_list traced in
  let lost =
    List.fold_left (fun acc w -> acc + w.w_lost) 0 windows
    + Option.fold ~none:0 ~some:snd probe
  in
  let generator_bound_windows =
    List.length (List.filter (fun w -> generator_bound w.w_lateness) windows)
  in
  (* The gate daemon is the last one measured. *)
  let n_last = (List.nth windows (List.length windows - 1)).w_advances in
  let attempted = all.ok + errors all + lost in
  let failed =
    errors all + lost + (if report_ok then 0 else 1) + if applied = n_last then 0 else 1
  in
  let adv_p50 = median t.adv_lat_ms and adv_tail, adv_tail_p = tail t.adv_lat_ms in
  let q_p50 = median t.lat_ms and q_tail, q_tail_p = tail t.lat_ms in
  let sum_int key l = List.fold_left (fun acc j -> acc +. num (field key j)) 0.0 l in
  (* Advances served per second of service time (send to reply), a
     figure that does not grow with the number of subjects an advance
     re-analyses, from the fastest advance. *)
  let advances_per_s = 1.0 /. fastest t.adv_service_s in
  let subjects_per_s =
    List.map2
      (fun j s -> (num (field "dirty" j) +. num (field "new_contracts" j)) /. s)
      t.adv t.adv_service_s
    |> sorted_of_list
    |> fun a -> percentile a 50.0
  in
  let layers =
    match traced with
    | None -> []
    | Some w2 ->
        let t2 = w2.w_tally and b = w2.w_before and a = w2.w_after in
        let pipelined = Option.fold ~none:nan ~some:(fun (p, _) -> median p.lat_ms) probe in
        let handle_us = in_process_handle_us ~lcfg ~rng ~addrs ~n:600 in
        let n = float_of_int w2.w_advances in
        let analysis = delta b a "proxion_batch_seconds" "sum" /. n in
        let mean_service = List.fold_left ( +. ) 0.0 t2.adv_service_s /. n in
        let per_stage =
          List.concat_map
            (fun st ->
              let name = Engine.stage_name st in
              let labels = [ ("stage", name) ] in
              [
                m ("stage." ^ name ^ ".s") (delta ~labels b a "proxion_stage_seconds" "sum") "s";
                m ("stage." ^ name ^ ".runs")
                  (delta ~labels b a "proxion_stage_runs_total" "value") "count";
              ])
            Engine.all_stages
        in
        let api = delta b a "proxion_api_method_calls_total" "value" in
        let steps = delta b a "proxion_stage_steps" "sum" in
        let step_time =
          List.fold_left
            (fun acc st ->
              let labels = [ ("stage", Engine.stage_name st) ] in
              if delta ~labels b a "proxion_stage_steps" "sum" > 0.0 then
                acc +. delta ~labels b a "proxion_stage_seconds" "sum"
              else acc)
            0.0 Engine.all_stages
        in
        [
          m "dataset.generate_s" generate_s "s";
          m "watch.dirty_per_advance" (sum_int "dirty" t2.adv /. n) "count";
          m "watch.new_per_advance" (sum_int "new_contracts" t2.adv /. n) "count";
          m "watch.analysis_s_per_advance" analysis "s";
          m "watch.other_s_per_advance" (mean_service -. analysis) "s";
          m "journal.bytes_per_commit" (float_of_int w2.w_journal_bytes /. n) "bytes";
          m "chain.api_calls" api "count";
          m "chain.api_calls_per_advance" (api /. n) "count";
          m "resilience.endpoint_attempts_per_advance"
            (delta b a "proxion_chain_endpoint_attempts_total" "value" /. n) "count";
          m "resilience.disagreements"
            (delta b a "proxion_chain_endpoint_disagreements_total" "value") "count";
          m "evm.steps" steps "count";
          m "evm.steps_per_s" (if step_time > 0.0 then steps /. step_time else 0.0) "1/s";
          m "engine.batches" (delta b a "proxion_batches_total" "value") "count";
          m "engine.stage_sum_s" (delta b a "proxion_stage_seconds" "sum") "s";
          m "wire.overhead_us" (median t.rtt_us -. handle_us) "us";
          m "wire.pipelined_p50_ms" pipelined "ms";
          m "loadgen.lateness_ms"
            (percentile (sorted_of_list (lateness_ms w2.w_lateness)) 99.0) "ms";
          m "obs.trace_overhead_pct"
            (100.0 *. ((median t2.adv_lat_ms /. adv_p50) -. 1.0)) "%";
        ]
        @ per_stage @ handle_layers b a @ shed_layers b a
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    e2e =
      [
        m "setup_s" setup_s "s";
        m "peak_rss_mb" rss "MB";
        m "throughput_per_s" advances_per_s "1/s";
      ];
    named =
      [
        m "advance.p50_ms" adv_p50 "ms";
        m "advance.tail_ms" adv_tail "ms";
        m "advance.tail_pct" adv_tail_p "%";
        m "advance.samples" (float_of_int (List.length t.adv_lat_ms)) "count";
        m "advance.interval_s" advance_interval "s";
        m "watch.advances_per_s" advances_per_s "1/s";
        m "watch.subjects_per_s" subjects_per_s "1/s";
        m "watch.query_rps" watch_query_rate "1/s";
        m "watch.query_p50_ms" q_p50 "ms";
        m "watch.query_p99_ms" q_tail "ms";
        m "watch.query_tail_pct" q_tail_p "%";
        m "watch.query_samples" (float_of_int (List.length t.lat_ms)) "count";
        m "watch.lateness_p99_ms" (percentile (sorted_of_list (lateness_ms w.w_lateness)) 99.0) "ms";
        m "watch.generator_bound_windows" (float_of_int generator_bound_windows) "count";
      ];
    layers;
    notes =
      (if report_ok then []
       else [ "report after the last advance differs from the cold re-run" ])
      @ (if applied = n_last then []
         else [ Printf.sprintf "daemon applied %d advances, %d sent" applied n_last ])
      @ (if generator_bound_windows = 0 then []
         else [ "the sender fell behind its schedule: the window is generator-bound" ]);
    seeds = [ ("landscape", lseed); ("mix", mseed); ("advance", aseed) ];
  }
