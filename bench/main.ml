(* Benchmark and regeneration harness.

   Two halves:

   1. Bechamel micro-benchmarks — one Test.make per paper table/figure,
      measuring the computational kernel that experiment leans on, plus
      substrate benches (keccak, U256, EVM interpretation, disassembly) and
      the DESIGN.md ablations.

   2. Regeneration — prints every table and figure of the paper's
      evaluation from a freshly generated landscape / corpus.

   Usage:
     dune exec bench/main.exe                 # micro + all regenerations
     dune exec bench/main.exe -- micro        # only micro-benchmarks
     dune exec bench/main.exe -- table1|table2|table3|table4
     dune exec bench/main.exe -- fig2|fig4|fig5|fig6
     dune exec bench/main.exe -- perf|effectiveness|ablation|engine
     dune exec bench/main.exe -- landscape    # all landscape outputs *)

module Patterns = Minisol.Patterns
module Codegen = Minisol.Codegen

(* Every wall-clock figure below reads this clock; swapping in a virtual
   clock makes the whole harness time-deterministic. *)
let clock = Obs.Clock.real

let time f =
  let t0 = Obs.Clock.now clock in
  let result = f () in
  (result, Obs.Clock.now clock -. t0)

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                      *)
(* ------------------------------------------------------------------ *)

type fixtures = {
  fx_land : Dataset.Generate.t;
  fx_report : Proxion.Pipeline.report;
  fx_host : Evm.Host.t;
  fx_slot_proxy : Evm.Address.t;  (* a slot proxy with upgrade history *)
  fx_proxy_addresses : Evm.Address.t list;
  fx_honeypot_pair : string * string;  (* bytecode pair w/ function collision *)
  fx_audius_pair : string * string;  (* bytecode pair w/ storage collision *)
  fx_erc20 : Evm.Address.t;
  fx_erc20_host : Evm.Host.t;
}

let bench_config =
  { Dataset.Generate.quick_config with Dataset.Generate.total = 1_200 }

let build_fixtures () =
  let land_ = Dataset.Generate.generate bench_config in
  let chain = land_.Dataset.Generate.chain in
  let report =
    Proxion.Pipeline.analyze ~chain ~source:land_.Dataset.Generate.source_of ()
  in
  let host = Chain.host_at_head chain in
  let slot_proxy =
    match
      List.find_opt
        (fun l ->
          l.Dataset.Generate.l_kind = Dataset.Generate.K_slot_proxy
          || l.Dataset.Generate.l_kind = Dataset.Generate.K_audius_proxy)
        land_.Dataset.Generate.labels
    with
    | Some l -> l.Dataset.Generate.l_address
    | None -> failwith "bench fixtures: no slot proxy generated"
  in
  let proxies =
    List.filter_map
      (fun r ->
        if Proxion.Pipeline.is_proxy_report r then
          Some r.Proxion.Pipeline.r_address
        else None)
      report.Proxion.Pipeline.contracts
  in
  (* A standalone ERC20-ish contract for EVM-interpretation benches. *)
  let erc20_host = Evm.Host.in_memory () in
  let erc20 = Evm.Address.of_hex "0x00000000000000000000000000000000000e4c20" in
  Evm.Host.with_code erc20_host erc20 (Codegen.runtime (Patterns.erc20ish_logic ()));
  {
    fx_land = land_;
    fx_report = report;
    fx_host = host;
    fx_slot_proxy = slot_proxy;
    fx_proxy_addresses = proxies;
    fx_honeypot_pair =
      ( Codegen.runtime (Patterns.honeypot_proxy ()),
        Codegen.runtime (Patterns.honeypot_logic ()) );
    fx_audius_pair =
      ( Codegen.runtime (Patterns.audius_proxy ()),
        Codegen.runtime (Patterns.audius_logic ()) );
    fx_erc20 = erc20;
    fx_erc20_host = erc20_host;
  }

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let micro_tests fx =
  let open Bechamel in
  let caller = Evm.Address.of_hex "0x00000000000000000000000000000000000a11ce" in
  let mint_input =
    Evm.Abi.encode_call ~signature:"mint(uint256)" [ Evm.Abi.Uint (U256.of_int 5) ]
  in
  let hp_proxy, hp_logic = fx.fx_honeypot_pair in
  let au_proxy, au_logic = fx.fx_audius_pair in
  let sample_word = U256.of_hex "0xdeadbeefcafebabe0123456789abcdef" in
  let eip1167 =
    Patterns.eip1167_runtime
      (Evm.Address.of_hex "0x1234567890123456789012345678901234567890")
  in
  [
    (* Substrate kernels. *)
    Test.make ~name:"substrate/keccak256-136B"
      (Staged.stage (fun () -> Keccak.digest (String.make 136 'x')));
    Test.make ~name:"substrate/u256-mul"
      (Staged.stage (fun () -> U256.mul sample_word sample_word));
    Test.make ~name:"substrate/u256-divmod"
      (Staged.stage (fun () -> U256.divmod U256.max_value sample_word));
    Test.make ~name:"substrate/disassemble-erc20"
      (Staged.stage (fun () -> Evm.Disasm.disassemble hp_proxy));
    Test.make ~name:"substrate/evm-mint-tx"
      (Staged.stage (fun () ->
           Evm.Interp.execute fx.fx_erc20_host
             (Evm.Interp.make_call ~caller ~target:fx.fx_erc20 ~input:mint_input ())));
    (* One kernel per table/figure. *)
    Test.make ~name:"table1/emulation-probe-eip1167"
      (Staged.stage (fun () -> Proxion.Proxy_detect.detect_code eip1167));
    Test.make ~name:"table2/func-collision-bytecode-pair"
      (Staged.stage (fun () ->
           Proxion.Func_collision.detect
             ~proxy:(Proxion.Func_collision.Bytecode hp_proxy)
             ~logic:(Proxion.Func_collision.Bytecode hp_logic)));
    Test.make ~name:"table3/storage-collision-bytecode-pair"
      (Staged.stage (fun () ->
           Proxion.Storage_collision.detect
             ~proxy:(Proxion.Storage_collision.Bytecode au_proxy)
             ~logic:(Proxion.Storage_collision.Bytecode au_logic)));
    Test.make ~name:"table4/standard-classification"
      (Staged.stage (fun () ->
           Proxion.Standard_classify.classify ~code:eip1167 Proxion.Proxy_detect.Hardcoded));
    Test.make ~name:"fig2/availability-aggregation"
      (Staged.stage (fun () ->
           List.length
             (List.filter
                (fun l -> l.Dataset.Generate.l_has_source)
                fx.fx_land.Dataset.Generate.labels)));
    Test.make ~name:"fig4/pair-counting"
      (Staged.stage (fun () ->
           List.fold_left
             (fun acc r -> acc + List.length r.Proxion.Pipeline.r_pairs)
             0 fx.fx_report.Proxion.Pipeline.contracts));
    Test.make ~name:"fig5/dedup-distribution"
      (Staged.stage (fun () ->
           Proxion.Dedup.duplicate_distribution
             ~hash_of:(Chain.code_hash fx.fx_land.Dataset.Generate.chain)
             fx.fx_proxy_addresses));
    Test.make ~name:"fig6/algorithm1-resolve"
      (Staged.stage (fun () ->
           Proxion.Logic_resolve.resolve_slot fx.fx_land.Dataset.Generate.chain
             fx.fx_slot_proxy ~slot:U256.one));
    Test.make ~name:"perf/proxy-probe-slot-proxy"
      (Staged.stage (fun () -> Proxion.Proxy_detect.detect ~host:fx.fx_host fx.fx_slot_proxy));
    (* Ablations (DESIGN.md). *)
    Test.make ~name:"ablation/naive-push4-extraction"
      (Staged.stage (fun () -> Proxion.Selector_extract.naive_push4 hp_proxy));
    Test.make ~name:"ablation/dispatcher-extraction"
      (Staged.stage (fun () -> Proxion.Selector_extract.dispatcher_selectors hp_proxy));
  ]

let run_micro fx =
  let open Bechamel in
  let tests = Test.make_grouped ~name:"proxion" (micro_tests fx) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Report.print_table ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
    ~header:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let human =
           if Float.is_nan ns then "n/a"
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; human ])
       rows)

(* ------------------------------------------------------------------ *)
(* Ablation studies (DESIGN.md)                                        *)
(* ------------------------------------------------------------------ *)

let run_ablation fx =
  let chain = fx.fx_land.Dataset.Generate.chain in
  (* 1. Algorithm 1 vs naive scan: API calls. *)
  let slot_proxies =
    List.filter_map
      (fun r ->
        match r.Proxion.Pipeline.r_detection.Proxion.Proxy_detect.verdict with
        | Proxion.Proxy_detect.Proxy
            { source = Proxion.Proxy_detect.Storage_slot slot; _ } ->
            Some (r.Proxion.Pipeline.r_address, slot)
        | _ -> None)
      fx.fx_report.Proxion.Pipeline.contracts
  in
  let total_calls =
    List.fold_left
      (fun acc (addr, slot) ->
        acc
        + (Proxion.Logic_resolve.resolve_slot chain addr ~slot)
            .Proxion.Logic_resolve.api_calls)
      0 slot_proxies
  in
  let n = max 1 (List.length slot_proxies) in
  (* 2. Naive PUSH4 vs dispatcher extraction: false selectors. *)
  let hp_proxy, _ = fx.fx_honeypot_pair in
  let naive = Proxion.Selector_extract.naive_push4 hp_proxy in
  let dispatch = Proxion.Selector_extract.dispatcher_selectors hp_proxy in
  (* 3. Dedup on/off wall-clock. *)
  let time f = snd (time f) in
  let source = fx.fx_land.Dataset.Generate.source_of in
  let with_dedup =
    time (fun () -> ignore (Proxion.Pipeline.analyze ~chain ~source ()))
  in
  let no_dedup =
    Proxion.Pipeline.Config.with_dedup false Proxion.Pipeline.Config.default
  in
  let without_dedup =
    time (fun () ->
        Proxion.Pipeline.analyze ~config:no_dedup ~chain ~source ())
  in
  (* 4. Crafted vs random probe calldata: detection when the random
     selector happens to hit a real function.  We simulate by probing the
     honeypot proxy with its own colliding selector: the dispatcher
     captures the call and no forwarding is observed. *)
  let hp_addr = Evm.Address.of_hex "0x00000000000000000000000000000000000abcde" in
  let hp_host = Evm.Host.in_memory () in
  Evm.Host.with_code hp_host hp_addr hp_proxy;
  let crafted = Proxion.Proxy_detect.detect ~host:hp_host hp_addr in
  let collide_input = Keccak.selector "free_ether_withdrawal()" ^ String.make 32 '\000' in
  let forwarded_with_colliding_probe =
    let hit = ref false in
    let tracer =
      {
        Evm.Interp.no_tracer with
        Evm.Interp.on_call =
          (fun ev ->
            if ev.Evm.Interp.kind = Evm.Interp.Delegatecall && ev.Evm.Interp.input = collide_input
            then hit := true);
      }
    in
    let _ =
      Evm.Interp.execute ~tracer hp_host
        (Evm.Interp.make_call
           ~caller:(Evm.Address.of_hex "0x0000000000000000000000000000000000001234")
           ~target:hp_addr ~input:collide_input ())
    in
    !hit
  in
  (* Algorithm 1 scaling: API calls grow logarithmically with chain height
     while the naive scan grows linearly. *)
  let algo1_at_height height =
    let c = Chain.create () in
    let proxy = Chain.install_contract c ~runtime:"\x00" () in
    let step = max 1 (height / 4) in
    List.iteri
      (fun i logic ->
        Chain.advance_blocks c (step * i);
        Chain.set_storage_direct c proxy U256.zero (U256.of_int logic))
      [ 0x100; 0x200; 0x300 ];
    Chain.advance_blocks c (height - Chain.height c);
    let r = Proxion.Logic_resolve.resolve_slot c proxy ~slot:U256.zero in
    r.Proxion.Logic_resolve.api_calls
  in
  let scaling =
    List.map
      (fun h -> Printf.sprintf "%d blocks: %d calls" h (algo1_at_height h))
      [ 1_000; 100_000; 15_000_000 ]
  in
  Report.print_table ~title:"Ablations (DESIGN.md design choices)"
    ~header:[ "Ablation"; "Result" ]
    [
      [
        "Algorithm 1 API calls (avg per slot proxy)";
        Printf.sprintf "%.1f vs naive %d (full scan)"
          (float_of_int total_calls /. float_of_int n)
          (Chain.height chain);
      ];
      [ "Algorithm 1 scaling (3 upgrades)"; String.concat "; " scaling ];
      [
        "naive PUSH4 selector harvest";
        Printf.sprintf "%d candidates (incl. embedded constants)" (List.length naive);
      ];
      [
        "dispatcher-pattern extraction";
        Printf.sprintf "%d selectors (dispatcher-backed only)" (List.length dispatch);
      ];
      [
        "pipeline wall-clock with dedup";
        Printf.sprintf "%.3f s" with_dedup;
      ];
      [
        "pipeline wall-clock without dedup";
        Printf.sprintf "%.3f s (%.1fx slower)" without_dedup
          (without_dedup /. Float.max 1e-9 with_dedup);
      ];
      [
        "crafted probe detects honeypot proxy";
        (match crafted.Proxion.Proxy_detect.verdict with
        | Proxion.Proxy_detect.Proxy _ -> "yes"
        | _ -> "NO");
      ];
      [
        "colliding (non-crafted) probe forwards";
        (if forwarded_with_colliding_probe then "yes (would still detect)"
         else "no (captured by dispatcher: detection would miss)");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Engine benchmarks: scheduler overhead, batch-size sweep, checkpoint  *)
(* ------------------------------------------------------------------ *)

(* Current git revision, read straight from .git (no subprocess). *)
let git_rev () =
  let read_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> Some (String.trim s)
    | exception Sys_error _ -> None
  in
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_path = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_path) with
      | Some rev -> rev
      | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

let bench_engine_json_path = "BENCH_engine.json"

(* Streamed-RSS probe.  VmHWM is a process-lifetime high-water mark, so
   each total gets its own subprocess: the bench re-execs itself with
   BENCH_STREAM_TOTAL set, the child runs a full streamed scan (open_stream
   / analyze / evict, same loop as the CLI's --stream path) and prints one
   machine-readable line.  The bounded-RSS claim is the ratio between the
   totals' peaks staying near 1. *)

let run_stream_child total =
  let config =
    { Dataset.Generate.quick_config with Dataset.Generate.total }
  in
  let stream = Dataset.Generate.open_stream config in
  let chain = Dataset.Generate.stream_chain stream in
  let source = Dataset.Generate.stream_source_of stream in
  let analyzer = Proxion.Analyzer.create ~chain ~source () in
  let t0 = Obs.Clock.now clock in
  let rec loop () =
    match Dataset.Generate.next_batch stream ~batch:4096 with
    | None -> ()
    | Some specs ->
        Proxion.Analyzer.submit analyzer
          (Array.to_list
             (Array.map
                (fun sp ->
                  sp.Dataset.Generate.sp_label.Dataset.Generate.l_address)
                specs));
        Proxion.Analyzer.refresh_head analyzer;
        Proxion.Analyzer.run analyzer;
        ignore (Proxion.Analyzer.drain_results analyzer);
        Array.iter
          (fun sp ->
            if not sp.Dataset.Generate.sp_pinned then
              Dataset.Generate.evict stream sp)
          specs;
        loop ()
  in
  loop ();
  Chain.compact chain;
  let elapsed = Obs.Clock.now clock -. t0 in
  let rss =
    Option.value ~default:(-1) (Experiments.Stream_scan.peak_rss_kb ())
  in
  Printf.printf "total=%d contracts=%d rss_kb=%d elapsed_s=%.3f\n" total
    (Dataset.Generate.stream_emitted stream)
    rss elapsed

type stream_row = {
  sr_total : int;
  sr_contracts : int;
  sr_rss_kb : int;
  sr_elapsed : float;
}

let stream_rss_rows () =
  let totals =
    [ 20_000; 100_000 ]
    @ (if Sys.getenv_opt "BENCH_STREAM_M1" <> None then [ 1_000_000 ] else [])
    @
    (* The full-mainnet soak (36M contracts, hours of wall-clock) only on
       explicit request. *)
    if Sys.getenv_opt "BENCH_STREAM_SOAK" <> None then [ 36_000_000 ] else []
  in
  List.filter_map
    (fun total ->
      Unix.putenv "BENCH_STREAM_TOTAL" (string_of_int total);
      let ic =
        Unix.open_process_args_in Sys.executable_name
          [| Sys.executable_name |]
      in
      let line = try Some (input_line ic) with End_of_file -> None in
      let status = Unix.close_process_in ic in
      Unix.putenv "BENCH_STREAM_TOTAL" "";
      match (line, status) with
      | Some line, Unix.WEXITED 0 -> (
          try
            Scanf.sscanf line "total=%d contracts=%d rss_kb=%d elapsed_s=%f"
              (fun sr_total sr_contracts sr_rss_kb sr_elapsed ->
                Some { sr_total; sr_contracts; sr_rss_kb; sr_elapsed })
          with Scanf.Scan_failure _ | Failure _ -> None)
      | _ -> None)
    totals

(* Keccak cost: single-block digest latency, bulk throughput, and the
   landscape generation that Keccak dominates (selector mining, address
   derivation, code hashes).  Each figure is the median of its trials,
   with the min and max beside it. *)

type spread = { sp_median : float; sp_min : float; sp_max : float }

let spread_of samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  { sp_median = a.(Array.length a / 2); sp_min = a.(0); sp_max = a.(Array.length a - 1) }

let spread_json sp =
  [
    ("median", Report.Json.Float sp.sp_median);
    ("min", Report.Json.Float sp.sp_min);
    ("max", Report.Json.Float sp.sp_max);
  ]

type keccak_figures = {
  kf_single_us : spread;  (** One single-block (25-byte) digest. *)
  kf_bulk_mb_s : spread;  (** One 4 MB digest. *)
  kf_generate_s : (int * spread) list;  (** [Generate.default_config] by total. *)
}

let keccak_figures () =
  let trials n f = spread_of (List.init n (fun _ -> f ())) in
  let single () =
    let n = 20_000 in
    let (), s =
      time (fun () ->
          for _ = 1 to n do
            ignore (Keccak.digest "transfer(address,uint256)")
          done)
    in
    s *. 1e6 /. float_of_int n
  in
  let bulk_msg = String.make 4_000_000 'k' in
  let bulk () =
    let _, s = time (fun () -> Keccak.digest bulk_msg) in
    float_of_int (String.length bulk_msg) /. 1e6 /. s
  in
  let generate total () =
    Gc.compact ();
    snd
      (time (fun () ->
           Dataset.Generate.generate
             { Dataset.Generate.default_config with Dataset.Generate.total }))
  in
  {
    kf_single_us = trials 5 single;
    kf_bulk_mb_s = trials 5 bulk;
    kf_generate_s =
      List.map (fun total -> (total, trials 3 (generate total))) [ 4_000; 10_000 ];
  }

let keccak_json kf =
  Report.Json.Obj
    [
      ("single_block_us", Report.Json.Obj (spread_json kf.kf_single_us));
      ("bulk_mb_per_s", Report.Json.Obj (spread_json kf.kf_bulk_mb_s));
      ( "generate_s",
        Report.Json.List
          (List.map
             (fun (total, sp) ->
               Report.Json.Obj (("total", Report.Json.Int total) :: spread_json sp))
             kf.kf_generate_s) );
    ]

let keccak_rows kf =
  let fmt unit sp = Printf.sprintf "%.2f %s (%.2f-%.2f)" sp.sp_median unit sp.sp_min sp.sp_max in
  [
    [ "keccak single-block digest"; fmt "us" kf.kf_single_us ];
    [ "keccak bulk digest"; fmt "MB/s" kf.kf_bulk_mb_s ];
  ]
  @ List.map
      (fun (total, sp) ->
        [ Printf.sprintf "landscape generation, %d contracts" total; fmt "s" sp ])
      kf.kf_generate_s

let run_keccak () =
  Report.print_table ~title:"Keccak-256 cost (median, min-max)"
    ~header:[ "Metric"; "Value" ]
    (keccak_rows (keccak_figures ()))

let run_engine fx =
  let chain = fx.fx_land.Dataset.Generate.chain in
  let source = fx.fx_land.Dataset.Generate.source_of in
  let analyze_with ?(domains = 1) batch_size =
    Chain.reset_api_call_count chain;
    let config =
      Proxion.Pipeline.Config.(
        default |> with_batch_size batch_size |> with_domains domains)
    in
    let t = Proxion.Analyzer.create ~config ~chain ~source () in
    Proxion.Analyzer.submit_all t;
    Proxion.Analyzer.run t;
    t
  in
  let sweep =
    List.map
      (fun b ->
        let t, elapsed = time (fun () -> analyze_with b) in
        Printf.sprintf "%d: %.3fs (%d batches)" b elapsed
          (Engine.batches_done (Proxion.Analyzer.engine t)))
      [ 8; 32; 128 ]
  in
  (* Event-delivery overhead: same run with a counting subscriber. *)
  let events = ref 0 in
  let _, with_events =
    time (fun () ->
        Chain.reset_api_call_count chain;
        let t = Proxion.Analyzer.create ~chain ~source () in
        Proxion.Analyzer.subscribe t (fun _ -> incr events);
        Proxion.Analyzer.submit_all t;
        Proxion.Analyzer.run t)
  in
  (* Checkpoint round-trip on a half-finished run. *)
  let half = Proxion.Analyzer.create ~chain ~source () in
  Proxion.Analyzer.submit_all half;
  Proxion.Analyzer.run ~max_batches:(Proxion.Analyzer.pending half / 64) half;
  let json, ck_elapsed = time (fun () -> Proxion.Analyzer.checkpoint half) in
  let text = Report.Json.to_string json in
  let restored, restore_elapsed =
    time (fun () -> Proxion.Analyzer.restore ~chain ~source json)
  in
  (* Journaled recovery replay: the crash-safety path end to end.  Commit
     a checkpoint per batch the way the CLI does, tear the tail the way a
     kill mid-write would, then measure recovery (journal scan +
     truncation) and replay (parse + restore) separately. *)
  let journal_path = Filename.temp_file "proxion_bench" ".jrnl" in
  Sys.remove journal_path;
  let journal_stats =
    let open Resilience in
    match Journal.open_journal ~fsync:false journal_path with
    | Error e -> Error e
    | Ok (j, _) -> (
        Chain.reset_api_call_count chain;
        let t = Proxion.Analyzer.create ~chain ~source () in
        Proxion.Analyzer.subscribe t (function
          | Engine.Batch_finished _ ->
              ignore
                (Journal.checkpoint j
                   (Report.Json.to_string (Proxion.Analyzer.checkpoint t)))
          | _ -> ());
        Proxion.Analyzer.submit_all t;
        Proxion.Analyzer.run ~max_batches:8 t;
        Journal.close j;
        Out_channel.with_open_gen
          [ Open_append; Open_binary ]
          0o644 journal_path
          (fun oc -> Out_channel.output_string oc "R\xff\xff\xff\xfftorn");
        let journal_bytes = (Unix.stat journal_path).Unix.st_size in
        let recovered, open_elapsed =
          time (fun () -> Journal.open_journal ~fsync:false journal_path)
        in
        match recovered with
        | Error e -> Error e
        | Ok (j2, r) -> (
            Journal.close j2;
            let replay, replay_elapsed =
              time (fun () ->
                  match r.Journal.rec_state with
                  | None -> Error "empty journal"
                  | Some s -> (
                      match Report.Json.parse s with
                      | Error e -> Error e
                      | Ok ck ->
                          Result.map ignore
                            (Proxion.Analyzer.restore ~chain ~source ck)))
            in
            match replay with
            | Error e -> Error e
            | Ok () ->
                Ok
                  ( journal_bytes,
                    r.Journal.rec_committed,
                    r.Journal.rec_dropped_bytes,
                    open_elapsed,
                    replay_elapsed )))
  in
  (try Sys.remove journal_path with Sys_error _ -> ());
  (* Domain-parallel sweep: one landscape fanned across 1/2/4/8 worker
     domains; the report must stay byte-identical to the sequential run.
     The sweep runs over a dedicated 10k-contract landscape rather than
     the small shared fixture: worker domains are spawned once per run,
     and that fixed cost (plus cold per-domain selector/jumpdest memos)
     would dominate a ~50 ms run and misreport scheduler overhead that
     amortizes to nothing at realistic scan sizes.  The keccak selector
     memo is reset before the reference run so its hit rate covers
     exactly the sweep's analyses. *)
  let report_string t =
    Report.Json.to_string
      (Proxion.Serialize.report_to_json (Proxion.Analyzer.report t))
  in
  let sweep_land =
    Dataset.Generate.generate
      { Dataset.Generate.quick_config with Dataset.Generate.total = 10_000 }
  in
  (* Batch 128 for the sweep: each batch barrier wakes the parked helpers
     and collects their done-signals, which on an oversubscribed core
     costs a context-switch round trip per helper.  128-contract batches
     amortize that fixed cost the way a real scan would; batch 32 spends
     ~0.6 ms/barrier x 312 barriers on wake-ups alone at DOMAINS=4. *)
  let analyze_domains d =
    let chain = sweep_land.Dataset.Generate.chain in
    Chain.reset_api_call_count chain;
    let config =
      Proxion.Pipeline.Config.(default |> with_batch_size 128 |> with_domains d)
    in
    let t =
      Proxion.Analyzer.create ~config ~chain
        ~source:sweep_land.Dataset.Generate.source_of ()
    in
    Proxion.Analyzer.submit_all t;
    Proxion.Analyzer.run t;
    t
  in
  Keccak.Memo.reset ();
  let domain_runs =
    List.map
      (fun d ->
        let t, elapsed = time (fun () -> analyze_domains d) in
        (d, t, elapsed))
      [ 1; 2; 4; 8 ]
  in
  let memo = Keccak.Memo.stats () in
  let base_elapsed, base_report =
    match domain_runs with
    | (1, t, elapsed) :: _ -> (elapsed, report_string t)
    | _ -> assert false
  in
  let processed =
    match domain_runs with
    | (_, t, _) :: _ ->
        List.length (Proxion.Analyzer.report t).Proxion.Pipeline.contracts
    | [] -> 0
  in
  let domain_rows =
    List.map
      (fun (d, t, elapsed) ->
        let identical = d = 1 || String.equal (report_string t) base_report in
        let cps = float_of_int processed /. Float.max 1e-9 elapsed in
        let speedup = base_elapsed /. Float.max 1e-9 elapsed in
        (d, t, elapsed, cps, speedup, identical))
      domain_runs
  in
  let domain_summary =
    String.concat "; "
      (List.map
         (fun (d, _, elapsed, cps, speedup, identical) ->
           Printf.sprintf "%d: %.3fs (%.0f c/s, %.2fx%s)" d elapsed cps speedup
             (if identical then "" else ", REPORT DIFFERS"))
         domain_rows)
  in
  let memo_total = memo.Keccak.Memo.hits + memo.Keccak.Memo.misses in
  let memo_rate =
    if memo_total = 0 then 0.0
    else float_of_int memo.Keccak.Memo.hits /. float_of_int memo_total
  in
  (* Allocation audit: GC word deltas across one full sequential analysis.
     The jumpdest-table memo and the scheduler's slot buffers show up here
     as fewer minor words per contract. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let gc_run, fixture_elapsed = time (fun () -> analyze_with 32) in
  let g1 = Gc.quick_stat () in
  let gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  let gc_major = g1.Gc.major_words -. g0.Gc.major_words in
  let gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  (* Fixture-landscape baseline: the resilience sweep below runs over the
     shared fixture, so its identity check and overhead ratio must be
     anchored here, not on the (larger) domain-sweep landscape. *)
  let fixture_report = report_string gc_run in
  let fixture_processed =
    List.length (Proxion.Analyzer.report gc_run).Proxion.Pipeline.contracts
  in
  let gc_minor_per_contract =
    gc_minor /. float_of_int (max 1 fixture_processed)
  in
  (* Resilience sweep: the same landscape under seeded fault injection.
     Every run must stay report-identical to the fault-free baseline
     (transients are retried on the virtual clock), so what this measures
     is the pure scheduling overhead of the retry/breaker machinery plus
     how the retry volume scales with the fault rate. *)
  let resilience_runs =
    List.map
      (fun fault_rate ->
        let retries = ref 0 and opens = ref 0 and closes = ref 0 in
        let resilience =
          Resilience.Transport.config
            ~plan:(Resilience.Fault_plan.spec ~seed:1 ~fault_rate ())
            ()
        in
        let t, elapsed =
          time (fun () ->
              Chain.reset_api_call_count chain;
              let config =
                Proxion.Pipeline.Config.(default |> with_batch_size 32)
              in
              let t =
                Proxion.Analyzer.create ~config ~resilience ~chain ~source ()
              in
              Proxion.Analyzer.subscribe t (fun ev ->
                  match ev with
                  | Engine.Retry_attempted _ -> incr retries
                  | Engine.Circuit_opened _ -> incr opens
                  | Engine.Circuit_closed _ -> incr closes
                  | _ -> ());
              Proxion.Analyzer.submit_all t;
              Proxion.Analyzer.run t;
              t)
        in
        let identical = String.equal (report_string t) fixture_report in
        let dead = List.length (Proxion.Analyzer.skipped t) in
        (fault_rate, elapsed, !retries, !opens, !closes, dead, identical))
      [ 0.0; 0.02; 0.08 ]
  in
  let resilience_summary =
    String.concat "; "
      (List.map
         (fun (rate, elapsed, retries, opens, _, dead, identical) ->
           Printf.sprintf "%.0f%%: %.3fs, %d retries, %d trips%s%s"
             (100.0 *. rate) elapsed retries opens
             (if dead > 0 then Printf.sprintf ", %d dead" dead else "")
             (if identical then "" else ", REPORT DIFFERS"))
         resilience_runs)
  in
  (* Telemetry overhead + per-stage latency percentiles (schema 4): the
     same landscape bare, with the always-on metrics registry, and with
     the full span trace on top (worker-lane shards and all); then the
     stage-latency distributions read back out of the registry
     histograms.  Best-of-7 per interleaved configuration — single runs of a
     workload carry several percent of scheduler noise. *)
  let instrumented_run ~with_trace () =
    Chain.reset_api_call_count chain;
    let registry = Obs.Metrics.create () in
    let trace = if with_trace then Some (Obs.Trace.create ~clock ()) else None in
    let config = Proxion.Pipeline.Config.(default |> with_batch_size 32) in
    let t = Proxion.Analyzer.create ~config ~chain ~source () in
    Proxion.Analyzer.instrument ?trace registry t;
    Proxion.Analyzer.submit_all t;
    Proxion.Analyzer.run t;
    (t, registry, trace)
  in
  (* Interleave the three configurations within each rep so machine
     drift (frequency scaling, background load) biases them equally. *)
  let plain_best = ref infinity
  and metrics_best = ref infinity
  and inst_best = ref infinity
  and last_inst = ref None in
  for _ = 1 to 7 do
    let _, dt = time (fun () -> analyze_with 32) in
    if dt < !plain_best then plain_best := dt;
    let _, dt = time (instrumented_run ~with_trace:false) in
    if dt < !metrics_best then metrics_best := dt;
    let v, dt = time (instrumented_run ~with_trace:true) in
    if dt < !inst_best then inst_best := dt;
    last_inst := Some v
  done;
  let plain_elapsed = !plain_best
  and metrics_elapsed = !metrics_best
  and inst_elapsed = !inst_best in
  let inst_t, registry, trace = Option.get !last_inst in
  let trace = Option.get trace in
  let metrics_overhead = metrics_elapsed /. Float.max 1e-9 plain_elapsed in
  let telemetry_overhead = inst_elapsed /. Float.max 1e-9 plain_elapsed in
  let stage_latency =
    match Obs.Metrics.find registry "proxion_stage_seconds" with
    | None -> []
    | Some fam ->
        List.filter_map
          (fun (stage, _, _) ->
            let name = Engine.stage_name stage in
            Option.map
              (fun s -> (name, s))
              (Obs.Metrics.summarize ~labels:[ ("stage", name) ] registry fam))
          (Engine.stage_totals (Proxion.Analyzer.engine inst_t))
  in
  (* Streamed bounded-RSS rows (subprocess per total; see above). *)
  let stream_rows = stream_rss_rows () in
  let stream_summary =
    if stream_rows = [] then "n/a (subprocess probe failed)"
    else
      String.concat "; "
        (List.map
           (fun r ->
             Printf.sprintf "%d: %.1f MiB, %.1fs" r.sr_total
               (float_of_int r.sr_rss_kb /. 1024.0)
               r.sr_elapsed)
           stream_rows)
  in
  (* Machine-readable trajectory artifact. *)
  let stage_json t =
    Report.Json.List
      (List.map
         (fun (stage, runs, tm) ->
           Report.Json.Obj
             [
               ("stage", Report.Json.String (Engine.stage_name stage));
               ("runs", Report.Json.Int runs);
               ("elapsed_s", Report.Json.Float tm.Engine.t_elapsed);
               ("api_calls", Report.Json.Int tm.Engine.t_api_calls);
               ("steps", Report.Json.Int tm.Engine.t_steps);
               ("retries", Report.Json.Int tm.Engine.t_retries);
             ])
         (Engine.stage_totals (Proxion.Analyzer.engine t)))
  in
  let cores = Domain.recommended_domain_count () in
  let keccak = keccak_figures () in
  let bench_json =
    Report.Json.Obj
      [
        ("schema_version", Report.Json.Int 5);
        ("git_rev", Report.Json.String (git_rev ()));
        ("cores", Report.Json.Int cores);
        ( "config",
          Report.Json.Obj
            [
              ( "total",
                Report.Json.Int bench_config.Dataset.Generate.total );
              ("seed", Report.Json.Int bench_config.Dataset.Generate.seed);
              ("batch_size", Report.Json.Int 32);
            ] );
        ("contracts_processed", Report.Json.Int fixture_processed);
        ( "sweep_config",
          Report.Json.Obj
            [
              ("total", Report.Json.Int 10_000);
              ("batch_size", Report.Json.Int 128);
              ("contracts_processed", Report.Json.Int processed);
            ] );
        ( "oversubscription_note",
          Report.Json.String
            "Rows with domains > cores measure the multi-domain runtime's \
             stop-the-world rendezvous cost on a shared core, not scheduler \
             overhead: per-stage step and API-call counts are identical \
             across all rows (work is conserved), and the gap is unchanged \
             when helpers are parked without being dispatched any work. \
             Speedup is only meaningful where cores >= domains." );
        ( "sweep",
          Report.Json.List
            (List.map
               (fun (d, t, elapsed, cps, speedup, identical) ->
                 Report.Json.Obj
                   [
                     ("domains", Report.Json.Int d);
                     ("elapsed_s", Report.Json.Float elapsed);
                     ("contracts_per_sec", Report.Json.Float cps);
                     ("speedup_vs_1", Report.Json.Float speedup);
                     (* Honesty flag: with more worker domains than cores
                        the row measures oversubscription overhead, not
                        scaling — do not read speedup off such rows. *)
                     ("oversubscribed", Report.Json.Bool (d > cores));
                     ("identical_report", Report.Json.Bool identical);
                     ("stages", stage_json t);
                   ])
               domain_rows) );
        ("keccak", keccak_json keccak);
        ( "keccak_memo",
          Report.Json.Obj
            [
              ("hits", Report.Json.Int memo.Keccak.Memo.hits);
              ("misses", Report.Json.Int memo.Keccak.Memo.misses);
              ("hit_rate", Report.Json.Float memo_rate);
            ] );
        ( "resilience",
          Report.Json.List
            (List.map
               (fun (rate, elapsed, retries, opens, closes, dead, identical) ->
                 Report.Json.Obj
                   [
                     ("fault_rate", Report.Json.Float rate);
                     ("elapsed_s", Report.Json.Float elapsed);
                     ( "overhead_vs_baseline",
                       Report.Json.Float
                         (elapsed /. Float.max 1e-9 fixture_elapsed) );
                     ("retries", Report.Json.Int retries);
                     ("breaker_opens", Report.Json.Int opens);
                     ("breaker_closes", Report.Json.Int closes);
                     ("dead_letters", Report.Json.Int dead);
                     ("identical_report", Report.Json.Bool identical);
                   ])
               resilience_runs) );
        ( "telemetry",
          Report.Json.Obj
            [
              ("uninstrumented_s", Report.Json.Float plain_elapsed);
              ("metrics_s", Report.Json.Float metrics_elapsed);
              ("instrumented_s", Report.Json.Float inst_elapsed);
              ("metrics_overhead_ratio", Report.Json.Float metrics_overhead);
              ("overhead_ratio", Report.Json.Float telemetry_overhead);
              ("trace_events", Report.Json.Int (Obs.Trace.count trace));
              ( "stage_latency",
                Report.Json.List
                  (List.map
                     (fun (name, s) ->
                       Report.Json.Obj
                         [
                           ("stage", Report.Json.String name);
                           ("count", Report.Json.Int s.Obs.Metrics.s_count);
                           ("p50_s", Report.Json.Float s.Obs.Metrics.s_p50);
                           ("p90_s", Report.Json.Float s.Obs.Metrics.s_p90);
                           ("p99_s", Report.Json.Float s.Obs.Metrics.s_p99);
                         ])
                     stage_latency) );
            ] );
        ( "gc",
          Report.Json.Obj
            [
              ("minor_words_per_run", Report.Json.Float gc_minor);
              ("major_words_per_run", Report.Json.Float gc_major);
              ("promoted_words_per_run", Report.Json.Float gc_promoted);
              ( "minor_words_per_contract",
                Report.Json.Float gc_minor_per_contract );
              ("top_heap_words", Report.Json.Int g1.Gc.top_heap_words);
            ] );
        ( "stream_rss",
          Report.Json.List
            (List.map
               (fun r ->
                 Report.Json.Obj
                   [
                     ("total", Report.Json.Int r.sr_total);
                     ("contracts", Report.Json.Int r.sr_contracts);
                     ("peak_rss_kb", Report.Json.Int r.sr_rss_kb);
                     ("elapsed_s", Report.Json.Float r.sr_elapsed);
                   ])
               stream_rows) );
        ( "recovery",
          match journal_stats with
          | Error e -> Report.Json.Obj [ ("error", Report.Json.String e) ]
          | Ok (bytes, committed, dropped, open_s, replay_s) ->
              Report.Json.Obj
                [
                  ("journal_bytes", Report.Json.Int bytes);
                  ("committed_frames", Report.Json.Int committed);
                  ("torn_bytes_dropped", Report.Json.Int dropped);
                  ("recovery_open_s", Report.Json.Float open_s);
                  ("replay_restore_s", Report.Json.Float replay_s);
                ] );
      ]
  in
  Out_channel.with_open_text bench_engine_json_path (fun oc ->
      Out_channel.output_string oc
        (Report.Json.to_string ~pretty:true bench_json);
      Out_channel.output_char oc '\n');
  let t = analyze_with 32 in
  Report.print_table ~title:"Engine: staged scheduler characteristics"
    ~header:[ "Metric"; "Value" ]
    ([
      [ "full run by batch size"; String.concat "; " sweep ];
      [ "full run by domains"; domain_summary ];
      [
        "cores (recommended_domain_count)";
        Printf.sprintf "%d (sweep rows beyond this are oversubscribed)" cores;
      ];
      [
        "gc per sequential run";
        Printf.sprintf "%.1fM minor words (%.0f/contract), %.1fM major"
          (gc_minor /. 1e6) gc_minor_per_contract (gc_major /. 1e6);
      ];
      [ "streamed scan peak RSS"; stream_summary ];
      [ "fault-injection sweep"; resilience_summary ];
      [
        "keccak selector memo";
        Printf.sprintf "%d hits / %d misses (%.1f%% hit rate)"
          memo.Keccak.Memo.hits memo.Keccak.Memo.misses (100.0 *. memo_rate);
      ];
      [
        "telemetry overhead (metrics)";
        Printf.sprintf "%.3fs vs %.3fs bare (%+.1f%%)" metrics_elapsed
          plain_elapsed
          ((metrics_overhead -. 1.0) *. 100.0);
      ];
      [
        "trace overhead (diagnostics)";
        Printf.sprintf "%.3fs vs %.3fs bare (%+.1f%%, %d trace events)"
          inst_elapsed plain_elapsed
          ((telemetry_overhead -. 1.0) *. 100.0)
          (Obs.Trace.count trace);
      ];
      [
        "stage latency p50/p90/p99 (us)";
        String.concat "; "
          (List.map
             (fun (name, s) ->
               Printf.sprintf "%s: %.0f/%.0f/%.0f" name
                 (1e6 *. s.Obs.Metrics.s_p50)
                 (1e6 *. s.Obs.Metrics.s_p90)
                 (1e6 *. s.Obs.Metrics.s_p99))
             stage_latency);
      ];
      [
        "run with event subscriber";
        Printf.sprintf "%.3fs (%d events delivered)" with_events !events;
      ];
      [
        "checkpoint (half-finished run)";
        Printf.sprintf "%.1f KiB in %.4fs" (float_of_int (String.length text) /. 1024.0)
          ck_elapsed;
      ];
      [
        "restore from checkpoint";
        Printf.sprintf "%s in %.4fs"
          (match restored with Ok _ -> "ok" | Error e -> "FAILED: " ^ e)
          restore_elapsed;
      ];
      [
        "journal recovery replay";
        (match journal_stats with
        | Error e -> "FAILED: " ^ e
        | Ok (bytes, committed, dropped, open_s, replay_s) ->
            Printf.sprintf
              "%.1f KiB journal, %d commits, %d torn B dropped; recover \
               %.4fs + replay %.4fs"
              (float_of_int bytes /. 1024.0)
              committed dropped open_s replay_s);
      ];
    ]
    @ keccak_rows keccak
    @ [
      [ "machine-readable artifact"; bench_engine_json_path ];
      [ "per-stage totals"; "" ];
    ]);
  print_string (Proxion.Analyzer.stage_totals_table t)

(* ------------------------------------------------------------------ *)
(* Regeneration driver                                                  *)
(* ------------------------------------------------------------------ *)

let landscape = lazy (Experiments.Landscape.prepare ~config:bench_config ())

let section name f =
  Printf.printf "\n";
  f ();
  ignore name

let run_table1 () = print_string (Experiments.Table1.render (Experiments.Table1.run ()))
let run_table2 () = print_string (Experiments.Table2.render (Experiments.Table2.run ()))
let run_perf () = print_string (Experiments.Perf.render (Experiments.Perf.run ~config:bench_config ()))

let run_effectiveness () =
  print_string
    (Experiments.Effectiveness.render_sanctuary
       (Experiments.Effectiveness.run_sanctuary ~config:bench_config ()));
  print_newline ();
  print_string
    (Experiments.Effectiveness.render_crush
       (Experiments.Effectiveness.run_crush ~config:bench_config ()))

let run_fig2 () = print_string (Experiments.Landscape.fig2 (Lazy.force landscape))
let run_fig4 () = print_string (Experiments.Landscape.fig4 (Lazy.force landscape))
let run_table3 () = print_string (Experiments.Landscape.table3 (Lazy.force landscape))
let run_fig5 () = print_string (Experiments.Landscape.fig5 (Lazy.force landscape))
let run_table4 () = print_string (Experiments.Landscape.table4 (Lazy.force landscape))
let run_fig6 () = print_string (Experiments.Landscape.fig6 (Lazy.force landscape))
let run_summary () = print_string (Experiments.Landscape.summary (Lazy.force landscape))

let run_multichain () =
  print_string (Experiments.Multichain.render (Experiments.Multichain.run ~base_total:800 ()))

let run_all_landscape () =
  run_summary ();
  print_newline ();
  run_fig2 ();
  print_newline ();
  run_fig4 ();
  print_newline ();
  run_table3 ();
  print_newline ();
  run_fig5 ();
  print_newline ();
  run_table4 ();
  print_newline ();
  run_fig6 ();
  print_newline ();
  print_string (Experiments.Landscape.upgrade_authority (Lazy.force landscape))

let () =
  (* Subprocess mode: streamed-RSS probe child (see run_stream_child). *)
  match
    Option.bind (Sys.getenv_opt "BENCH_STREAM_TOTAL") int_of_string_opt
  with
  | Some total when total > 0 -> run_stream_child total
  | _ -> (
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match arg with
  | "micro" ->
      let fx = build_fixtures () in
      run_micro fx
  | "ablation" ->
      let fx = build_fixtures () in
      run_ablation fx
  | "engine" ->
      let fx = build_fixtures () in
      run_engine fx
  | "keccak" -> run_keccak ()
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "table3" -> run_table3 ()
  | "table4" -> run_table4 ()
  | "fig2" -> run_fig2 ()
  | "fig4" -> run_fig4 ()
  | "fig5" -> run_fig5 ()
  | "fig6" -> run_fig6 ()
  | "perf" -> run_perf ()
  | "effectiveness" -> run_effectiveness ()
  | "landscape" -> run_all_landscape ()
  | "multichain" -> run_multichain ()
  | "all" ->
      print_endline "ProxioN benchmark & regeneration harness";
      print_endline "========================================";
      let fx = build_fixtures () in
      section "micro" (fun () -> run_micro fx);
      section "ablation" (fun () -> run_ablation fx);
      section "engine" (fun () -> run_engine fx);
      section "table1" run_table1;
      section "table2" run_table2;
      section "perf" run_perf;
      section "effectiveness" run_effectiveness;
      section "multichain" run_multichain;
      section "landscape" run_all_landscape
  | other ->
      Printf.eprintf
        "unknown section %s (try: micro ablation engine keccak table1 table2 table3 \
         table4 fig2 fig4 fig5 fig6 perf effectiveness multichain landscape \
         all)\n"
        other;
      exit 1)
