(** What every workload shares: the run configuration, the host block,
    percentiles, process memory, the per-layer counters read from a
    {!Neurovec.Stats.report}, the attribution table and the result line. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  jobs : int;  (** pool size and client count: [nproc] *)
  smoke : bool;  (** tiny inputs: the benchmark's own test *)
  work_dir : string;  (** scratch files of this run, inside the checkout *)
  cli : string;  (** the built [neurovec] executable (serve spawns it) *)
  rev : string;
}

let nproc () = Domain.recommended_domain_count ()

(** A file of this run's scratch directory. *)
let path (c : config) (name : string) = Filename.concat c.work_dir name

let now = Unix.gettimeofday

(** Nearest-rank percentile, [p] in \[0, 1\]. *)
let percentile (xs : float array) (p : float) : float =
  let ys = Array.copy xs in
  Array.sort compare ys;
  let n = Array.length ys in
  if n = 0 then 0.0
  else ys.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let sum = Array.fold_left ( +. ) 0.0

(** Peak resident set (VmHWM) of process [pid] ("self" for this one). *)
let peak_rss_mb (pid : string) : float =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

let gc_top_heap_mb () : float =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* a JSON number with every digit the float carries *)
let num (f : float) : string =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let host_line (c : config) : unit =
  Printf.printf
    "host: {\"nproc\": %d, \"jobs\": %d, \"ocaml\": \"%s\", \"rev\": \"%s\", \
     \"workload\": \"%s\", \"seed\": %d, \"seconds\": %s, \"traced\": %b}\n%!"
    (nproc ()) c.jobs Sys.ocaml_version c.rev c.workload c.seed (num c.seconds)
    c.traced

(* ------------------------------------------------------------------ *)
(* Per-layer counters from a Stats report                               *)
(* ------------------------------------------------------------------ *)

let phase_key = function
  | "parse" -> Some "frontend.parse_ms"
  | "sema" -> Some "frontend.sema_ms"
  | "lower" -> Some "prevec.lower_ms"
  | "licm+cse" -> Some "prevec.licm_cse_ms"
  | "vectorize" -> Some "planner.vectorize_ms"
  | "timing" -> Some "timing.ms"
  | _ -> None

(** The per-layer counters a {!Neurovec.Stats.report} carries, by metric
    name.  Parsing the text (rather than reading the snapshot record)
    gives one path for the in-process workloads and for the serve
    daemon, whose only window is its [stats] reply. *)
let counters_of_report (text : string) : (string * float) list =
  let out = ref [] in
  let set k v = out := (k, v) :: !out in
  let rate h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  let hits_misses prefix line =
    let n = String.length prefix in
    if String.length line > n && String.sub line 0 n = prefix then
      Scanf.sscanf_opt
        (String.trim (String.sub line n (String.length line - n)))
        "%d hits / %d misses" (fun h m -> (h, m))
    else None
  in
  List.iter
    (fun line ->
      let caches =
        [ ("front-end cache:", "frontend.hit_rate");
          ("prevec cache:", "prevec.hit_rate");
          ("point memo:", "pipeline.point_hit_rate");
          ("timing memo:", "timing.memo_hit_rate");
          ("on-disk store:", "store.hit_rate");
          ("verify cache:", "verify.hit_rate");
          ("vm code cache:", "vm.code_hit_rate") ]
      in
      List.iter
        (fun (prefix, key) ->
          Option.iter (fun (h, m) -> set key (rate h m)) (hits_misses prefix line))
        caches;
      let scan fmt k = Option.iter k (Scanf.sscanf_opt line fmt Fun.id) in
      (match Scanf.sscanf_opt line "%s %d %f %f" (fun n c ms _ -> (n, c, ms)) with
      | Some (name, _, ms) -> Option.iter (fun k -> set k ms) (phase_key name)
      | None -> ());
      scan "pipeline evaluations: %d" (fun n -> set "pipeline.evals" (float_of_int n));
      scan "quarantined programs: %d" (fun n -> set "reward.quarantined" (float_of_int n));
      scan "timing resamples (median-of-k): %d" (fun n ->
          set "reward.resamples" (float_of_int n));
      scan "transient retries: %d" (fun n -> set "supervisor.retries" (float_of_int n));
      scan "watchdog cancellations: %d" (fun n ->
          set "supervisor.watchdog_cancels" (float_of_int n));
      scan "reward journal: %d" (fun n -> set "journal.appends" (float_of_int n));
      (match
         Scanf.sscanf_opt line "serve batches: %d (mean size %f" (fun b m -> (b, m))
       with
      | Some (b, m) ->
          set "serve.batches" (float_of_int b);
          set "serve.batch_mean" m
      | None -> ());
      (match
         Scanf.sscanf_opt line "interpreted steps: %d vm / %d tree-walked%s@\n"
           (fun vm _ rest -> (vm, rest))
       with
      | Some (vm, rest) ->
          set "vm.steps" (float_of_int vm);
          Option.iter
            (fun d -> set "vm.deopts" (float_of_int d))
            (Scanf.sscanf_opt rest ", %d deopts" Fun.id)
      | None -> ());
      match Scanf.sscanf_opt line "reward failures: %s@\n" Fun.id with
      | Some kinds ->
          List.iter
            (fun kv ->
              match String.split_on_char '=' kv with
              | [ k; n ] -> (
                  match int_of_string_opt n with
                  | Some n -> set ("errors." ^ k) (float_of_int n)
                  | None -> ())
              | _ -> ())
            (String.split_on_char ' ' kinds)
      | None -> ())
    (String.split_on_char '\n' text);
  List.rev !out

(** This process's counters; phase times come from the snapshot, with
    every digit the report's two decimals would drop. *)
let local_counters () : (string * float) list =
  let s = Neurovec.Stats.snapshot () in
  List.filter_map
    (fun (name, secs, _) -> Option.map (fun k -> (k, 1e3 *. secs)) (phase_key name))
    s.Neurovec.Stats.phases
  @ counters_of_report (Neurovec.Stats.report ())

(* ------------------------------------------------------------------ *)
(* The per-layer metric set                                             *)
(* ------------------------------------------------------------------ *)

(** Every per-layer metric with its unit, in reporting order.  Each
    traced run reports all of them; a layer a workload bypasses reads 0.
    Times appear only for layers every workload runs; the other layers
    report their self-time share of the traced wall time ([_pct]) and
    counts, and the attribution table carries their milliseconds. *)
let per_layer_units =
  [ ("frontend.parse_ms", "ms"); ("frontend.sema_ms", "ms");
    ("frontend.hit_rate", "ratio"); ("frontend.entries", "count");
    ("prevec.lower_ms", "ms"); ("prevec.licm_cse_ms", "ms");
    ("prevec.hit_rate", "ratio"); ("planner.vectorize_ms", "ms");
    ("timing.ms", "ms"); ("timing.memo_hit_rate", "ratio");
    ("pipeline.point_hit_rate", "ratio"); ("pipeline.evals", "count");
    ("reward.resamples", "count"); ("reward.failed", "count");
    ("reward.quarantined", "count"); ("parpool.efficiency", "ratio");
    ("parpool.map_overhead_us", "us"); ("parpool.maps", "count");
    ("supervisor.retries", "count"); ("supervisor.watchdog_cancels", "count");
    ("verify.hit_rate", "ratio"); ("vm.steps", "count");
    ("vm.steps_per_s", "1/s"); ("vm.code_hit_rate", "ratio");
    ("vm.deopts", "count"); ("checkpoint.bytes", "bytes");
    ("journal.appends", "count"); ("serve.batches", "count");
    ("serve.batch_mean", "count"); ("store.hit_rate", "ratio");
    ("gc.top_heap_mb", "MB"); ("errors.rate", "ratio");
    ("errors.compile", "count"); ("errors.trap", "count");
    ("errors.fuel", "count"); ("errors.timeout", "count");
    ("errors.hung", "count"); ("errors.transient", "count");
    ("errors.miscompile", "count"); ("errors.internal", "count");
    ("errors.shed", "count"); ("frontend.self_pct", "%");
    ("prevec.self_pct", "%"); ("planner.self_pct", "%");
    ("timing.self_pct", "%"); ("pipeline.self_pct", "%");
    ("reward.self_pct", "%");
    ("parpool.self_pct", "%"); ("verify.self_pct", "%");
    ("infer.self_pct", "%"); ("ppo.self_pct", "%");
    ("checkpoint.self_pct", "%"); ("serve.self_pct", "%");
    ("serve.hit_residual_pct", "%"); ("trace.residual_pct", "%");
    ("trace.overhead_pct", "%") ]

(** The layers whose self-time shares are reported (span layer names). *)
let layers =
  [ "frontend"; "prevec"; "planner"; "timing"; "pipeline"; "reward";
    "parpool"; "verify"; "infer"; "ppo"; "checkpoint"; "serve" ]

(** Attribution of [wall] (seconds of the traced replay, or of summed
    request latency for serve) to layer self times: prints the table with
    milliseconds and shares, and returns the [<layer>.self_pct] and
    [trace.residual_pct] metrics. *)
let attribution ?(what = "traced wall") ~(wall : float) ~(untraced : float)
    (selfs : (string * float) list) : (string * float) list =
  let get l = Option.value ~default:0.0 (List.assoc_opt l selfs) in
  let pct x = if wall > 0.0 then 100.0 *. x /. wall else 0.0 in
  let attributed = List.fold_left (fun a l -> a +. get l) 0.0 layers in
  let residual = wall -. attributed in
  Printf.printf "attribution of the %s, %.1f ms (untraced %.1f ms):\n" what
    (wall *. 1e3) (untraced *. 1e3);
  List.iter
    (fun l ->
      if get l <> 0.0 then
        Printf.printf "  %-12s %10.2f ms  %6.2f%%\n" l (get l *. 1e3) (pct (get l)))
    layers;
  Printf.printf "  %-12s %10.2f ms  %6.2f%%\n" "sum" (attributed *. 1e3) (pct attributed);
  Printf.printf "  %-12s %10.2f ms  %6.2f%%\n%!" "residual" (residual *. 1e3)
    (pct residual);
  List.map (fun l -> (l ^ ".self_pct", pct (get l))) layers
  @ [ ("trace.residual_pct", pct residual) ]

(* ------------------------------------------------------------------ *)
(* The result line                                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;  (** values of {!end_to_end_units} *)
  per_layer : (string * float) list;  (** values of {!per_layer_units} *)
}

let end_to_end_units =
  [ ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

(** The last line of standard output: the end-to-end metrics untraced,
    the per-layer metrics traced; a metric the workload did not set reads
    0. *)
let print_result (c : config) (r : result) : unit =
  let units = if c.traced then per_layer_units else end_to_end_units in
  let values = if c.traced then r.per_layer else r.end_to_end in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (num (Option.value ~default:0.0 (List.assoc_opt name values)))
             unit)
         units)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed body
