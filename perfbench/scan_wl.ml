(* The scan workload: the batch path of `proxion scan`.  Set-up generates
   the landscape; each timed pass runs Analyzer.create -> submit_all -> run
   at one domain, then report -> Serialize.report_to_json ->
   Json.to_string.  A closed loop: the next pass starts when the previous
   one has finished.

   One domain, not two: on a two-core host a second domain made a pass
   slower, not faster, and its time then depends on how the scheduler
   places the domains.  The parallel engine still joins the correctness
   gate through one untimed pass at two domains. *)

open Util
module G = Dataset.Generate
module A = Proxion.Analyzer

let gate_domains = 2

type pass = {
  wall : float;
  run_s : float;
  assemble_s : float;
  serialize_s : float;
  encode_s : float;
  bytes : string;
  batch_lat : float list;  (** Engine batch latencies, seconds. *)
  skipped : int;
  analyzer : A.t;
  report : Proxion.Analysis.report;
}

(* One pass over the whole landscape.  With [trace], every layer call is
   wrapped in a span recorded by the benchmark itself. *)
let scan_pass ?trace ~domains (land_ : G.t) =
  let span name f =
    match trace with None -> f () | Some tr -> Obs.Trace.with_span tr name f
  in
  let config = Proxion.Analysis.Config.(default |> with_domains domains) in
  let batch_lat = ref [] in
  let t0 = now () in
  let analyzer =
    span "core.analyzer_create" (fun () ->
        A.create ~config ~chain:land_.G.chain ~source:land_.G.source_of ())
  in
  A.subscribe analyzer (function
    | Engine.Batch_finished { elapsed; _ } -> batch_lat := elapsed :: !batch_lat
    | _ -> ());
  span "core.submit_all" (fun () -> A.submit_all analyzer);
  let (), run_s = time (fun () -> span "engine.run" (fun () -> A.run analyzer)) in
  let report, assemble_s =
    time (fun () -> span "report.assemble" (fun () -> A.report analyzer))
  in
  let json, serialize_s =
    time (fun () ->
        span "report.serialize" (fun () ->
            Proxion.Serialize.report_to_json report))
  in
  let bytes, encode_s =
    time (fun () -> span "report.encode" (fun () -> Json.to_string json))
  in
  let wall = now () -. t0 in
  {
    wall;
    run_s;
    assemble_s;
    serialize_s;
    encode_s;
    bytes;
    batch_lat = !batch_lat;
    skipped = List.length (A.skipped analyzer);
    analyzer;
    report;
  }

(* Keccak.digest once over every analysed contract's code: the hashing
   the analyzer does before stage 1, measured on its own. *)
let code_hash_pass codes =
  let (), s = time (fun () -> List.iter (fun c -> ignore (Keccak.digest c)) codes) in
  s

let generate_median ~repeats cfg =
  let rec go k acc last =
    if k = 0 then (Option.get last, median acc)
    else begin
      (* Drop the previous landscape first, so repeats do not stack up in
         the peak RSS. *)
      ignore last;
      Gc.compact ();
      let land_, s = time (fun () -> G.generate cfg) in
      go (k - 1) (s :: acc) (Some land_)
    end
  in
  go repeats [] None

let stage_layers analyzer =
  let totals = Engine.stage_totals (A.engine analyzer) in
  let per_stage =
    List.concat_map
      (fun (st, runs, (t : Engine.timing)) ->
        let n = "stage." ^ Engine.stage_name st in
        [ m (n ^ ".s") t.t_elapsed "s"; m (n ^ ".runs") (float_of_int runs) "count" ])
      totals
  in
  let sum f = List.fold_left (fun acc (_, _, t) -> acc +. f t) 0.0 totals in
  let stage_sum = sum (fun t -> t.Engine.t_elapsed) in
  let steps = sum (fun t -> float_of_int t.Engine.t_steps) in
  let step_time =
    sum (fun t -> if t.Engine.t_steps > 0 then t.Engine.t_elapsed else 0.0)
  in
  let api = sum (fun t -> float_of_int t.Engine.t_api_calls) in
  (per_stage, stage_sum, steps, step_time, api)

let run ~seed ~seconds ~trace ~size =
  let total = match size with `Full -> 4_000 | `Tiny -> 300 in
  let lseed = derive seed "landscape" in
  let cfg = { G.default_config with G.total; seed = lseed } in
  let land_, setup_s = generate_median ~repeats:setup_repeats cfg in
  let contracts = List.length (Chain.all_contracts land_.G.chain) in
  (* Reference: one untimed pass at one domain.  Its report is the bytes
     every timed pass must reproduce.  In a traced run it also gives the
     layer ledger, since at one domain the stage timers are wall time. *)
  let tr = if trace then Some (Obs.Trace.create ()) else None in
  (* Only the reference's bytes, skip count and (traced) layers outlive
     this scope: its analyzer and report are dropped before the timed
     passes, so peak_rss_mb does not count a second analyzer state. *)
  let ref_bytes, ref_skipped, ref_layers =
    Keccak.Memo.reset ();
    let gc0 = Gc.quick_stat () in
    let r = scan_pass ?trace:tr ~domains:1 land_ in
    let gc1 = Gc.quick_stat () in
    let memo = Keccak.Memo.stats () in
    let layers =
      if not trace then None
      else begin
        let per_stage, stage_sum, steps, step_time, api = stage_layers r.analyzer in
        let stats = r.report.Proxion.Analysis.stats in
        let lookups = memo.Keccak.Memo.hits + memo.Keccak.Memo.misses in
        Some
          ( r.run_s,
            stage_sum,
            r.assemble_s +. r.serialize_s +. r.encode_s,
            [
              m "keccak.memo_hit_ratio"
                (if lookups = 0 then 0.0
                 else float_of_int memo.Keccak.Memo.hits /. float_of_int lookups)
                "ratio";
              m "engine.run_s" r.run_s "s";
              m "engine.batches" (float_of_int (List.length r.batch_lat)) "count";
              m "engine.stage_sum_s" stage_sum "s";
              m "engine.unattributed_s" (r.run_s -. stage_sum) "s";
              m "evm.steps" steps "count";
              m "evm.steps_per_s" (if step_time > 0.0 then steps /. step_time else 0.0) "1/s";
              m "chain.api_calls" api "count";
              m "core.dedup_hit_ratio"
                (float_of_int stats.Proxion.Analysis.s_dedup_hits
                /. float_of_int (max 1 stats.Proxion.Analysis.s_analyzed))
                "ratio";
              m "report.assemble_s" r.assemble_s "s";
              m "report.serialize_s" r.serialize_s "s";
              m "report.encode_s" r.encode_s "s";
              m "report.mb" (float_of_int (String.length r.bytes) /. 1e6) "MB";
              m "gc.minor_mwords" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6) "Mwords";
              m "gc.major_collections"
                (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
                "count";
            ]
            @ per_stage )
      end
    in
    (r.bytes, r.skipped, layers)
  in
  Gc.compact ();
  let ref_ok = ref_skipped = 0 in
  let mismatched = ref 0 and skipped = ref 0 and passes = ref [] in
  let check p =
    skipped := !skipped + p.skipped;
    if p.bytes <> ref_bytes then incr mismatched
  in
  check (scan_pass ~domains:gate_domains land_);
  Gc.compact ();
  let deadline = now () +. seconds in
  let untraced = ref [] and traced = ref [] in
  while now () < deadline || !passes = [] do
    (* A traced run alternates untraced and traced passes, so the tracing
       overhead is measured on interleaved trials. *)
    let with_trace = trace && List.length !passes mod 2 = 1 in
    let p =
      scan_pass ?trace:(if with_trace then tr else None) ~domains:1 land_
    in
    check p;
    if with_trace then traced := p.wall :: !traced
    else untraced := p.wall :: !untraced;
    (* Keep only the timings: a pass's analyzer and report are dropped
       before the next one starts. *)
    passes := (p.wall, p.batch_lat) :: !passes
  done;
  let passes = !passes in
  let n_passes = List.length passes in
  let lat_ms =
    List.concat_map (fun (_, l) -> List.map (fun s -> s *. 1000.0) l) passes
  in
  let pass_s = median !untraced and fastest_pass_s = fastest !untraced in
  let rate = float_of_int contracts /. fastest_pass_s in
  let p50 = median lat_ms and tail_ms, tail_p = tail lat_ms in
  (* The timed passes and the untimed pass at [gate_domains]. *)
  let attempted = contracts * (n_passes + 1) in
  let failed = !skipped + (!mismatched * contracts) in
  let layers =
    match ref_layers with
    | None -> []
    | Some (run_s, stage_sum, report_s, ref_metrics) ->
      let codes = List.map (fun cm -> Chain.code_at land_.G.chain cm.Chain.cm_address)
          (Chain.all_contracts land_.G.chain)
      in
      let code_bytes =
        List.fold_left (fun acc c -> acc + String.length c) 0 codes
      in
      let code_hash_s = median (List.init 3 (fun _ -> code_hash_pass codes)) in
      let overhead =
        100.0 *. ((median !traced /. median !untraced) -. 1.0)
      in
      Option.iter
        (fun t -> ignore (write_trace t "scan-trace.json"))
        tr;
      [
        m "dataset.generate_s" setup_s "s";
        m "keccak.code_hash_s" code_hash_s "s";
        m "keccak.mb_per_s" (float_of_int code_bytes /. 1e6 /. code_hash_s) "MB/s";
      ]
      @ ref_metrics
      @ [
          m "ledger.covered_pct"
            (100.0 *. (stage_sum +. code_hash_s +. report_s) /. (run_s +. report_s))
            "%";
          m "obs.trace_overhead_pct" overhead "%";
        ]
  in
  {
    correct = ref_ok && failed = 0;
    attempted;
    failed;
    e2e =
      [
        m "setup_s" setup_s "s";
        m "peak_rss_mb" (peak_rss_mb ~pid:"self") "MB";
        m "throughput_per_s" rate "1/s";
      ];
    named =
      [
        m "scan.contracts" (float_of_int contracts) "count";
        m "scan.contracts_per_s" rate "1/s";
        m "scan.pass_s" pass_s "s";
        m "scan.fastest_pass_s" fastest_pass_s "s";
        m "scan.median_contracts_per_s" (float_of_int contracts /. pass_s) "1/s";
        m "scan.passes" (float_of_int n_passes) "count";
        m "scan.batch_p50_ms" p50 "ms";
        m "scan.batch_tail_ms" tail_ms "ms";
        m "scan.batch_tail_pct" tail_p "%";
        m "scan.batch_samples" (float_of_int (List.length lat_ms)) "count";
      ];
    layers;
    notes =
      (if ref_ok then [] else [ "reference pass skipped contracts" ])
      @ (if !mismatched = 0 then []
         else [ Printf.sprintf "%d pass(es) differ from the DOMAINS=1 reference report" !mismatched ]);
    seeds = [ ("landscape", lseed) ];
  }
