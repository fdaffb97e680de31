(* The benchmark's own check, at a tiny landscape size:
   - BENCHMARK.json names exactly the metrics this program emits, with the
     same units, under names made of [A-Za-z0-9_.-];
   - every workload passes its correctness gate and measures every
     end-to-end metric itself (none filled in), never as 0 or NaN;
   - every workload measures the layers it is documented to exercise;
   - at one seed, the count metrics repeat exactly across two traced runs. *)

open Util

let seconds = 2.0
let seed = 7

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* Layers each workload must measure (the rest read 0 there). *)
let exercised =
  let stages suffixes =
    List.concat_map
      (fun st -> List.map (fun s -> "stage." ^ Engine.stage_name st ^ s) suffixes)
      Engine.all_stages
  in
  [
    ( "scan",
      [
        "dataset.generate_s"; "keccak.code_hash_s"; "keccak.mb_per_s";
        "keccak.memo_hit_ratio"; "engine.run_s"; "engine.batches";
        "engine.stage_sum_s"; "engine.unattributed_s"; "evm.steps";
        "evm.steps_per_s"; "chain.api_calls"; "core.dedup_hit_ratio";
        "report.assemble_s"; "report.serialize_s"; "report.encode_s"; "report.mb";
        "gc.minor_mwords"; "gc.major_collections"; "ledger.covered_pct";
        "obs.trace_overhead_pct";
      ]
      @ stages [ ".s"; ".runs" ] );
    ( "watch",
      [
        "dataset.generate_s"; "chain.api_calls"; "chain.api_calls_per_advance";
        "evm.steps"; "serve.handle_us.advance"; "serve.handle_us.is_proxy";
        "serve.handle_us.logic_history"; "serve.handle_us.collisions";
        "serve.handle_us.get_status"; "serve.handle_us.list_findings";
        "wire.overhead_us"; "wire.pipelined_p50_ms"; "serve.shed"; "serve.deadline_exceeded";
        "watch.dirty_per_advance"; "watch.new_per_advance";
        "watch.analysis_s_per_advance"; "watch.other_s_per_advance";
        "journal.bytes_per_commit"; "resilience.endpoint_attempts_per_advance";
        "resilience.disagreements"; "loadgen.lateness_ms"; "obs.trace_overhead_pct";
      ]
      @ stages [ ".s"; ".runs" ] );
  ]

(* Counts that must repeat exactly at one seed. *)
let repeatable =
  [
    ("scan", [ "scan.contracts"; "chain.api_calls"; "evm.steps"; "engine.batches" ]);
    ( "watch",
      [
        "chain.api_calls"; "evm.steps"; "watch.dirty_per_advance";
        "watch.new_per_advance"; "journal.bytes_per_commit";
      ] );
  ]

let benchmark_metrics key =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.parse text with
      | Error e -> Error e
      | Ok j -> (
          match field key j with
          | Some (Json.List l) ->
              Ok
                (List.filter_map
                   (fun x ->
                     match (field "name" x, field "unit" x) with
                     | Some (Json.String n), Some (Json.String u) -> Some (n, u)
                     | _ -> None)
                   l)
          | _ -> Error ("no " ^ key)))

let run ~per_layer ~end_to_end ~run_workload =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (key, catalogue) ->
      match benchmark_metrics key with
      | Error e -> fail "BENCHMARK.json %s: %s" key e
      | Ok l ->
          if l <> catalogue then fail "BENCHMARK.json %s differs from the program's list" key;
          List.iter (fun (n, _) -> if not (valid_name n) then fail "bad metric name %S" n) l)
    [ ("end_to_end", end_to_end); ("per_layer", per_layer) ];
  let go workload trace =
    let o = run_workload ~workload ~seed ~seconds ~trace ~size:`Tiny in
    if not o.correct then
      fail "%s (trace %b): correctness gate failed: %s" workload trace
        (String.concat "; " o.notes);
    List.iter
      (fun x -> if not (valid_name x.name) then fail "%s: bad metric name %S" workload x.name)
      (o.e2e @ o.named @ o.layers);
    o
  in
  let find name o = List.find_opt (fun x -> x.name = name) (o.named @ o.layers) in
  List.iter
    (fun workload ->
      let o = go workload false in
      List.iter
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.name = name) o.e2e with
          | None -> fail "%s: end-to-end %s not measured" workload name
          | Some x when x.unit_ <> unit_ -> fail "%s: %s in %s, not %s" workload name x.unit_ unit_
          | Some x when Float.is_nan x.value || x.value <= 0.0 ->
              fail "%s: end-to-end %s = %g" workload name x.value
          | Some _ -> ())
        end_to_end;
      let t1 = go workload true and t2 = go workload true in
      List.iter
        (fun name ->
          match find name t1 with
          | None -> fail "%s: layer %s not measured" workload name
          | Some x when Float.is_nan x.value -> fail "%s: layer %s is NaN" workload name
          | Some x -> (
              match List.assoc_opt name per_layer with
              | Some u when u <> x.unit_ -> fail "%s: %s in %s, not %s" workload name x.unit_ u
              | _ -> ()))
        (List.assoc workload exercised);
      List.iter
        (fun name ->
          match (find name t1, find name t2) with
          | Some a, Some b when a.value = b.value -> ()
          | Some a, Some b -> fail "%s: %s differs at one seed: %g vs %g" workload name a.value b.value
          | _ -> fail "%s: count %s not measured" workload name)
        (List.assoc workload repeatable);
      Printf.printf "selfcheck: %s done\n%!" workload)
    [ "scan"; "watch" ];
  match List.rev !failures with
  | [] ->
      print_endline "selfcheck: ok";
      0
  | l ->
      List.iter (fun s -> print_endline ("selfcheck: FAIL " ^ s)) l;
      1
