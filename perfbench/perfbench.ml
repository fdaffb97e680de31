(* perfbench: the repository benchmark (see README.md).

     perfbench --workload scan|watch --seed N --seconds S --trace 0|1
     perfbench --workload all --seed N --seconds S   (every workload, both modes)
     perfbench --selfcheck

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  The line above
   it is the run record (stamp, seeds, every metric under its workload
   name).  Exits 1 when a correctness gate failed. *)

open Util

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("throughput_per_s", "1/s");
  ]

(* Every per-layer metric, in BENCHMARK.json order.  A layer a workload
   does not exercise in its measured window reads 0. *)
let per_layer =
  [
    ("dataset.generate_s", "s");
    ("keccak.code_hash_s", "s");
    ("keccak.mb_per_s", "MB/s");
    ("keccak.memo_hit_ratio", "ratio");
    ("engine.run_s", "s");
    ("engine.batches", "count");
    ("engine.stage_sum_s", "s");
    ("engine.unattributed_s", "s");
  ]
  @ List.concat_map
      (fun st ->
        let n = "stage." ^ Engine.stage_name st in
        [ (n ^ ".s", "s"); (n ^ ".runs", "count") ])
      Engine.all_stages
  @ [
      ("evm.steps", "count");
      ("evm.steps_per_s", "1/s");
      ("chain.api_calls", "count");
      ("chain.api_calls_per_advance", "count");
      ("core.dedup_hit_ratio", "ratio");
      ("report.assemble_s", "s");
      ("report.serialize_s", "s");
      ("report.encode_s", "s");
      ("report.mb", "MB");
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count");
      ("ledger.covered_pct", "%");
    ]
  @ List.map (fun meth -> ("serve.handle_us." ^ meth, "us")) serve_methods
  @ [
      ("wire.overhead_us", "us");
      ("wire.pipelined_p50_ms", "ms");
      ("serve.shed", "count");
      ("serve.deadline_exceeded", "count");
      ("watch.dirty_per_advance", "count");
      ("watch.new_per_advance", "count");
      ("watch.analysis_s_per_advance", "s");
      ("watch.other_s_per_advance", "s");
      ("journal.bytes_per_commit", "bytes");
      ("resilience.endpoint_attempts_per_advance", "count");
      ("resilience.disagreements", "count");
      ("loadgen.lateness_ms", "ms");
      ("obs.trace_overhead_pct", "%");
    ]

let workloads = [ "scan"; "watch" ]

let run_workload ~workload ~seed ~seconds ~trace ~size =
  ensure_out_dir ();
  match workload with
  | "scan" -> Scan_wl.run ~seed ~seconds ~trace ~size
  | "watch" -> Serve_wl.watch ~seed ~seconds ~trace ~size
  | w -> invalid_arg ("unknown workload " ^ w)

(* The metrics the result line carries: every catalogue name, in
   catalogue order, with a measured value or 0 for a layer not
   exercised. *)
let select catalogue measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> { x with unit_ }
      | None -> m name 0.0 unit_)
    catalogue

let metric_json l =
  Json.Obj
    (List.map
       (fun x ->
         (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
       l)

let result_line o metrics =
  Json.to_string ~pretty:false
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ("metrics", metric_json metrics);
       ])

let print_metrics ~workload l =
  List.iter
    (fun x -> Printf.printf "  %-44s %14.6g %s\n" (workload ^ ": " ^ x.name) x.value x.unit_)
    l

let run_record ~workload ~seed ~seconds ~trace o =
  Json.Obj
    [
      ("run_record", Json.String workload);
      ("stamp", stamp ~seeds:(("bench", seed) :: o.seeds));
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "error_rate",
        Json.Float (float_of_int o.failed /. float_of_int (max 1 o.attempted)) );
      ("end_to_end", metric_json o.e2e);
      ("named", metric_json o.named);
      ("per_layer", metric_json o.layers);
      ("notes", Json.List (List.map (fun s -> Json.String s) o.notes));
    ]

let report ~workload ~seed ~seconds ~trace o =
  Printf.printf "workload %s (seed %d, %.0f s, trace %b): correct=%b attempted=%d failed=%d error_rate=%g\n"
    workload seed seconds trace o.correct o.attempted o.failed
    (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  print_metrics ~workload o.named;
  if trace then print_metrics ~workload (select per_layer o.layers)
  else print_metrics ~workload o.e2e;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.notes;
  let record = Json.to_string ~pretty:false (run_record ~workload ~seed ~seconds ~trace o) in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
    (Filename.concat out_dir "runs.jsonl") (fun oc ->
      output_string oc record;
      output_char oc '\n');
  print_endline record

let usage () =
  prerr_endline
    "usage: perfbench --workload scan|watch|all --seed N --seconds S \
     --trace 0|1\n       perfbench --selfcheck";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and selfcheck = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--selfcheck" :: rest -> selfcheck := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !selfcheck then exit (Selfcheck.run ~per_layer ~end_to_end ~run_workload)
  else
    let seed = !seed and seconds = !seconds and size = `Full in
    match !workload with
    | "all" ->
        let ok = ref true in
        List.iter
          (fun workload ->
            List.iter
              (fun trace ->
                let o = run_workload ~workload ~seed ~seconds ~trace ~size in
                report ~workload ~seed ~seconds ~trace o;
                ok := !ok && o.correct)
              [ false; true ])
          workloads;
        exit (if !ok then 0 else 1)
    | workload when List.mem workload workloads ->
        let trace = !trace in
        let o = run_workload ~workload ~seed ~seconds ~trace ~size in
        report ~workload ~seed ~seconds ~trace o;
        if o.correct then
          print_endline
            (result_line o (select (if trace then per_layer else end_to_end)
                              (if trace then o.layers else o.e2e)))
        else begin
          prerr_endline ("perfbench: correctness gate failed: " ^ String.concat "; " o.notes);
          exit 1
        end
    | _ -> usage ()
