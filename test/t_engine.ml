(* The staged batch engine and its ProxioN instantiation: scheduling
   order, event stream, checkpoint/resume byte-identity, dedup-cache
   persistence across runs, and error isolation. *)

module Generate = Dataset.Generate
module Patterns = Minisol.Patterns
module Codegen = Minisol.Codegen

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Generic engine: batching and events                                 *)
(* ------------------------------------------------------------------ *)

let int_engine ?(batch_size = 3) () =
  Engine.create ~batch_size ~subject:string_of_int
    ~process:(fun _ n -> Ok (string_of_int n))
    ()

let test_batch_ordering () =
  let t = int_engine () in
  let events = ref [] in
  Engine.subscribe t (fun ev -> events := ev :: !events);
  Engine.submit t [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  check_i "pending" 8 (Engine.pending t);
  Engine.run t;
  check_sl "results keep submission order"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8" ]
    (Engine.results t);
  check_i "batches" 3 (Engine.batches_done t);
  let batch_sizes =
    List.rev !events
    |> List.filter_map (function
         | Engine.Batch_started { index; size } -> Some (index, size)
         | _ -> None)
  in
  Alcotest.(check (list (pair int int)))
    "batch split" [ (0, 3); (1, 3); (2, 2) ] batch_sizes;
  let finished =
    List.exists
      (function
        | Engine.Run_finished { processed = 8; skipped = 0; _ } -> true
        | _ -> false)
      !events
  in
  check_b "Run_finished event" true finished

let test_max_batches_interruption () =
  let t = int_engine () in
  Engine.submit t [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Engine.run ~max_batches:1 t;
  check_i "one batch processed" 3 (Engine.processed_count t);
  check_i "rest stays queued" 5 (Engine.pending t);
  Engine.run t;
  check_i "drained" 0 (Engine.pending t);
  check_sl "order preserved across runs"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8" ]
    (Engine.results t)

let test_generic_checkpoint_roundtrip () =
  let t = int_engine () in
  Engine.submit t [ 10; 20; 30; 40; 50 ];
  Engine.run ~max_batches:1 t;
  let json =
    Engine.checkpoint
      ~item_to_json:(fun n -> Report.Json.Int n)
      ~res_to_json:(fun s -> Report.Json.String s)
      ~extra:(Report.Json.String "opaque")
      t
  in
  let item_of_json = function
    | Report.Json.Int n -> Ok n
    | _ -> Error "not an int"
  in
  let res_of_json = function
    | Report.Json.String s -> Ok s
    | _ -> Error "not a string"
  in
  match
    Engine.restore ~subject:string_of_int
      ~process:(fun _ n -> Ok (string_of_int n))
      ~item_of_json ~res_of_json json
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (t', extra) ->
      check_s "extra payload survives" "opaque"
        (match extra with Report.Json.String s -> s | _ -> "?");
      check_i "pending restored" 2 (Engine.pending t');
      check_i "batch counter restored" 1 (Engine.batches_done t');
      Engine.run t';
      check_sl "completion equals uninterrupted run"
        [ "10"; "20"; "30"; "40"; "50" ]
        (Engine.results t')

let test_stage_names_roundtrip () =
  List.iter
    (fun s ->
      match Engine.stage_of_name (Engine.stage_name s) with
      | Some s' -> check_b (Engine.stage_name s) true (s = s')
      | None -> Alcotest.failf "stage %s not parsed" (Engine.stage_name s))
    Engine.all_stages

(* ------------------------------------------------------------------ *)
(* Analyzer: checkpoint/resume byte-identity                           *)
(* ------------------------------------------------------------------ *)

let small_config = { Generate.quick_config with Generate.total = 300; seed = 11 }

let report_string r = Report.Json.to_string (Proxion.Serialize.report_to_json r)

let test_checkpoint_resume_identical_report () =
  (* Reference: one uninterrupted run. *)
  let land_a = Generate.generate small_config in
  let reference =
    Proxion.Pipeline.analyze ~chain:land_a.Generate.chain
      ~source:land_a.Generate.source_of ()
  in
  (* Interrupted run on an identically regenerated landscape. *)
  let land_b = Generate.generate small_config in
  let config =
    Proxion.Pipeline.Config.with_batch_size 16 Proxion.Pipeline.Config.default
  in
  let t =
    Proxion.Analyzer.create ~config ~chain:land_b.Generate.chain
      ~source:land_b.Generate.source_of ()
  in
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run ~max_batches:2 t;
  check_b "interrupted mid-queue" true (Proxion.Analyzer.pending t > 0);
  let ck = Proxion.Analyzer.checkpoint t in
  (* Serialize to text and parse back: exactly what the CLI's
     --checkpoint/--resume file round-trip does. *)
  let ck_text = Report.Json.to_string ~pretty:true ck in
  let ck' =
    match Report.Json.parse ck_text with
    | Ok j -> j
    | Error e -> Alcotest.failf "checkpoint does not reparse: %s" e
  in
  (* "New process": regenerate the landscape and resume there. *)
  let land_c = Generate.generate small_config in
  let resumed =
    match
      Proxion.Analyzer.restore ~chain:land_c.Generate.chain
        ~source:land_c.Generate.source_of ck'
    with
    | Ok t' -> t'
    | Error e -> Alcotest.failf "restore failed: %s" e
  in
  Proxion.Analyzer.run resumed;
  check_i "queue drained" 0 (Proxion.Analyzer.pending resumed);
  check_s "resumed report is byte-identical" (report_string reference)
    (report_string (Proxion.Analyzer.report resumed))

(* ------------------------------------------------------------------ *)
(* Analyzer: dedup cache persists across runs                          *)
(* ------------------------------------------------------------------ *)

let test_dedup_cache_across_runs () =
  let chain = Chain.create () in
  let logic =
    Chain.install_contract chain
      ~runtime:(Codegen.runtime (Patterns.counter_logic ()))
      ()
  in
  let clone () =
    Chain.install_contract chain ~runtime:(Patterns.eip1167_runtime logic) ()
  in
  let p1 = clone () in
  let p2 = clone () in
  let t = Proxion.Analyzer.create ~chain ~source:(fun _ -> None) () in
  Proxion.Analyzer.submit t [ p1 ];
  Proxion.Analyzer.run t;
  (* Second run on the same analyzer: the identical bytecode must hit the
     cache populated by the first run. *)
  Proxion.Analyzer.submit t [ p2 ];
  Proxion.Analyzer.run t;
  let report = Proxion.Analyzer.report t in
  check_i "both analyzed" 2 report.Proxion.Pipeline.stats.Proxion.Pipeline.s_analyzed;
  check_i "clone hits the cache" 1
    report.Proxion.Pipeline.stats.Proxion.Pipeline.s_dedup_hits;
  let second =
    List.find
      (fun r -> Evm.Address.equal r.Proxion.Pipeline.r_address p2)
      report.Proxion.Pipeline.contracts
  in
  check_b "second contract flagged as dedup hit" true
    second.Proxion.Pipeline.r_dedup_hit;
  check_b "still detected as proxy" true
    (Proxion.Pipeline.is_proxy_report second)

(* ------------------------------------------------------------------ *)
(* Analyzer: error isolation                                           *)
(* ------------------------------------------------------------------ *)

let test_error_isolation () =
  let chain = Chain.create () in
  let logic =
    Chain.install_contract chain
      ~runtime:(Codegen.runtime (Patterns.counter_logic ()))
      ()
  in
  let bad =
    Chain.install_contract chain ~runtime:(Patterns.eip1167_runtime logic) ()
  in
  let source addr =
    if Evm.Address.equal addr bad then
      failwith "synthetic source oracle outage"
    else None
  in
  let t = Proxion.Analyzer.create ~chain ~source () in
  let errored = ref [] in
  let skipped_events = ref [] in
  Proxion.Analyzer.subscribe t (fun ev ->
      match ev with
      | Engine.Stage_errored { stage; _ } -> errored := stage :: !errored
      | Engine.Item_skipped { subject; _ } ->
          skipped_events := subject :: !skipped_events
      | _ -> ());
  (* The oracle raises while analyzing [bad]'s pair; [logic] and the
     surrounding batch must still complete. *)
  Proxion.Analyzer.submit t [ logic; bad ];
  Proxion.Analyzer.run t;
  check_i "queue drained despite the failure" 0 (Proxion.Analyzer.pending t);
  let report = Proxion.Analyzer.report t in
  check_i "healthy contract still reported" 1
    report.Proxion.Pipeline.stats.Proxion.Pipeline.s_analyzed;
  check_s "healthy contract is the logic" (Evm.Address.to_hex logic)
    (Evm.Address.to_hex
       (List.hd report.Proxion.Pipeline.contracts).Proxion.Pipeline.r_address);
  (match Proxion.Analyzer.skipped t with
  | [ r ] ->
      check_s "dead letter names the bad contract" (Evm.Address.to_hex bad)
        r.Engine.sk_subject;
      check_b "classified permanent" true (r.Engine.sk_class = Engine.Permanent);
      check_b "attributed to the collision stage" true
        (r.Engine.sk_stage = Some Engine.Func_collision)
  | l -> Alcotest.failf "expected one dead letter, got %d" (List.length l));
  check_b "Stage_errored names the collision stage" true
    (List.mem Engine.Func_collision !errored);
  check_sl "Item_skipped event for the bad contract"
    [ Evm.Address.to_hex bad ]
    !skipped_events

let suite =
  [
    Alcotest.test_case "batch ordering and events" `Quick test_batch_ordering;
    Alcotest.test_case "max-batches interruption" `Quick
      test_max_batches_interruption;
    Alcotest.test_case "generic checkpoint roundtrip" `Quick
      test_generic_checkpoint_roundtrip;
    Alcotest.test_case "stage names roundtrip" `Quick test_stage_names_roundtrip;
    Alcotest.test_case "checkpoint/resume yields identical report" `Quick
      test_checkpoint_resume_identical_report;
    Alcotest.test_case "dedup cache persists across runs" `Quick
      test_dedup_cache_across_runs;
    Alcotest.test_case "error isolation skips only the failing item" `Quick
      test_error_isolation;
  ]
