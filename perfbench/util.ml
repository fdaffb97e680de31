(* Shared helpers: clocks, order statistics, seed derivation, process
   memory and the run stamp. *)

module Json = Report.Json

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ---------------------------------------------------- *)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let median l = percentile (sorted_of_list l) 50.0

(* The tail a sample supports: the highest percentile with at least ten
   samples beyond it, capped at p99 and never below the median.  Returns
   [(value, percentile)]. *)
let tail l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then (nan, 0.0)
  else
    let p_rank = 100.0 *. float_of_int (n - 10) /. float_of_int n in
    let p = Float.min 99.0 (Float.max 50.0 p_rank) in
    (percentile a p, p)

(* A throughput from many short trials of the same work: the fastest
   trial's time.  On a shared host the speed of one core moves by up to
   twofold for tens of seconds at a time (other tenants contend for the
   core's caches), so a median over one run reads whichever state the run
   fell in.  Noise only ever slows a trial, so the fastest one is the
   figure least moved by it. *)
let fastest times = List.fold_left Float.min infinity times

(* Set-ups per untraced run; setup_s is their median. *)
let setup_repeats = 3

(* --- seeds --------------------------------------------------------------- *)

(* splitmix64 finaliser: every input the workloads generate is derived
   from the --seed argument through this, one stream per purpose. *)
let derive seed purpose =
  let open Int64 in
  let h = ref (of_int seed) in
  String.iter
    (fun c -> h := add (mul !h 0x100000001b3L) (of_int (Char.code c)))
    purpose;
  let z = ref (add !h 0x9e3779b97f4a7c15L) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94d049bb133111ebL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (logand !z 0x3fffffffL)

(* --- process memory ------------------------------------------------------ *)

let status_field ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 String.sub line (i + 1) (String.length line - i - 1)
                 |> String.trim |> String.split_on_char ' ' |> List.hd
                 |> int_of_string_opt
             | _ -> None)

(* VmHWM in MiB, of this process ([pid] = "self") or a child. *)
let peak_rss_mb ~pid =
  match status_field ~pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

(* --- the run stamp ------------------------------------------------------- *)

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let out = In_channel.input_all ic in
      let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
      if ok then Some (String.trim out) else None

(* Where the sources came from.  Outside a git work tree (a plain export
   of the repository) the rev is "unknown" and the dirty flag null. *)
let stamp ~seeds =
  let rev, dirty =
    match command_output "git rev-parse HEAD" with
    | Some rev when rev <> "" ->
        let dirty =
          match command_output "git status --porcelain --untracked-files=no" with
          | Some s -> Json.Bool (s <> "")
          | None -> Json.Null
        in
        (rev, dirty)
    | _ -> ("unknown", Json.Null)
  in
  Json.Obj
    [
      ("git_rev", Json.String rev);
      ("dirty", dirty);
      ("profile", Json.String "release");
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("seeds", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) seeds));
    ]

(* --- JSON access --------------------------------------------------------- *)

let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None

let num = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> nan

(* --- what a workload hands back ------------------------------------------ *)

(* Wire methods whose handler time is a per-layer metric. *)
let serve_methods =
  [ "is_proxy"; "logic_history"; "collisions"; "get_status"; "list_findings"; "advance" ]

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** The BENCHMARK.json end-to-end names. *)
  named : metric list;  (** The workload's own names (scan.contracts_per_s…). *)
  layers : metric list;  (** Per-layer metrics, traced runs only. *)
  notes : string list;
  seeds : (string * int) list;
}

(* Output files (traces, journals, run records) live here, inside the
   checkout; the directory is ignored by git. *)
let out_dir = Filename.concat "perfbench" "out"

let ensure_out_dir () =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ out_dir; Filename.concat out_dir "tmp" ]

let write_trace tr name =
  let path = Filename.concat out_dir name in
  Out_channel.with_open_text path (fun oc -> Obs.Trace.write tr oc);
  path
