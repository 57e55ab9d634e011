(** Shared utilities for the experiment harness: table printing, summary
    statistics, the run-scale knob, timed corpus sweeps with their
    bit-identity gate, and the writer and validator every BENCH_*.json
    file goes through.

    Set [NEUROVEC_SCALE] to scale every training-step budget (e.g. 0.2 for
    a quick smoke run, 5.0 to approach paper-scale sample counts). *)

let scale : float =
  match Sys.getenv_opt "NEUROVEC_SCALE" with
  | Some s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None ->
          (* don't mask a typo as "scale 1.0" *)
          Printf.eprintf
            "neurovec: unparseable NEUROVEC_SCALE=%S, using 1.0\n%!" s;
          1.0)
  | None -> 1.0

let scaled (n : int) : int = max 1 (int_of_float (float_of_int n *. scale))

let mean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean (xs : float list) : float =
  match xs with
  | [] -> 1.0
  | _ ->
      exp (List.fold_left (fun a x -> a +. log (max x 1e-12)) 0.0 xs
           /. float_of_int (List.length xs))

let header (title : string) =
  Printf.printf "\n=== %s ===\n%!" title

(** Print a table: first column label, then one column per series. *)
let table ~(cols : string list) ~(rows : (string * float list) list) : unit =
  Printf.printf "%-22s" "";
  List.iter (fun c -> Printf.printf "%12s" c) cols;
  print_newline ();
  List.iter
    (fun (label, vals) ->
      Printf.printf "%-22s" label;
      List.iter (fun v -> Printf.printf "%12.3f" v) vals;
      print_newline ())
    rows;
  Printf.printf "%!"

let bar (label : string) (v : float) =
  let n = max 0 (min 60 (int_of_float (v *. 12.0))) in
  Printf.printf "%-22s %6.2fx %s\n" label v (String.make n '#')

(* ------------------------------------------------------------------ *)
(* Per-program fault tolerance                                          *)
(* ------------------------------------------------------------------ *)

(** Programs dropped by {!guard} in this process: (name, reason).
    Guarded by [skip_lock]: {!guarded_map} folds its skips serially in
    item order, but {!guard} itself may run inside a pool worker. *)
let skipped : (string * string) list ref = ref []

let skip_lock = Mutex.create ()

let note_skip (name : string) (reason : string) : unit =
  Mutex.protect skip_lock (fun () -> skipped := (name, reason) :: !skipped)

(* [f ()], or the (name, reason) skip record of the evaluation failure
   it raised *)
let skippable ~(name : string) (f : unit -> 'a) :
    ('a, string * string) result =
  try Ok (f ()) with
  | Neurovec.Reward.Quarantined (n, why) -> Error (n, why)
  | Neurovec.Pipeline.Compile_error msg -> Error (name, msg)
  | Ir_interp.Trap msg -> Error (name, "trap: " ^ msg)
  | Neurovec.Faults.Fuel_exhausted msg ->
      Error (name, "fuel exhausted: " ^ msg)
  | Neurovec.Supervisor.Hung msg -> Error (name, "hung: " ^ msg)
  | Neurovec.Faults.Transient msg -> Error (name, "transient: " ^ msg)

let keep_or_note : ('a, string * string) result -> 'a option = function
  | Ok y -> Some y
  | Error (n, why) ->
      note_skip n why;
      None

(** Run one program's worth of work, converting any evaluation failure
    (quarantined baseline, compile error, trap, fuel exhaustion) into a
    recorded skip instead of aborting the whole corpus sweep.  Drivers
    filter the [None]s out and call {!skipped_report} at the end, so a
    sweep over a faulty corpus always completes and reports what it
    dropped. *)
let guard ~(name : string) (f : unit -> 'a) : 'a option =
  keep_or_note (skippable ~name f)

(** {!guard} fanned across the {!Neurovec.Parpool} domains: evaluate [f]
    on every item, convert per-item evaluation failures to skips, and fold
    the survivors {e and} the skip records back in item order — so the
    results and {!skipped_report} are identical at any pool size. *)
let guarded_map ~(name : 'a -> string) (f : 'a -> 'b) (items : 'a array) :
    'b list =
  Neurovec.Parpool.map
    (fun x -> skippable ~name:(name x) (fun () -> f x))
    items
  |> Array.to_list
  |> List.filter_map keep_or_note

(** One line per skipped program (nothing when no program was skipped). *)
let skipped_report () : unit =
  match List.rev (Mutex.protect skip_lock (fun () -> !skipped)) with
  | [] -> ()
  | dropped ->
      Printf.printf "\nskipped %d program(s):\n" (List.length dropped);
      List.iter
        (fun (name, why) -> Printf.printf "  %-22s %s\n" name why)
        dropped;
      Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Timed corpus sweeps                                                  *)
(* ------------------------------------------------------------------ *)

(** One timed whole-corpus brute-force sweep: each program's best action
    and reward ([None] = quarantined), the quarantine report, the wall
    time, and the run's {!Neurovec.Stats} snapshot. *)
type sweep = {
  results : (Rl.Spaces.action * float) option array;
  quarantine : (string * string) list;
  seconds : float;
  stats : Neurovec.Stats.snapshot;
}

(** Sweep [programs] on a pool of [jobs] domains, timed as the best of
    [best_of] back-to-back runs (a sub-second sweep is within reach of
    scheduler noise; results come from the last run).  Every run starts
    from empty caches and zeroed counters, so no run coasts on another's
    memoized artifacts and the hit rates are scoped to the run. *)
let sweep ?(best_of = 1) ~(options : Neurovec.Pipeline.options)
    ~(jobs : int) (programs : Dataset.Program.t array) : sweep =
  let once () =
    Neurovec.Frontend.clear ();
    Neurovec.Stats.reset ();
    let oracle = Neurovec.Reward.create ~options programs in
    let t0 = Unix.gettimeofday () in
    let results =
      Neurovec.Parpool.with_jobs jobs (fun () ->
          Neurovec.Reward.sweep_all oracle)
    in
    let seconds = Unix.gettimeofday () -. t0 in
    { results; quarantine = Neurovec.Reward.quarantine_report oracle;
      seconds; stats = Neurovec.Stats.snapshot () }
  in
  let rec go best k =
    if k <= 1 then best
    else
      let r = once () in
      go { r with seconds = Float.min r.seconds best.seconds } (k - 1)
  in
  go (once ()) best_of

(** Fail unless two sweeps agree bit for bit: the same quarantine report
    and, per program, the same best action and reward bits.  Each
    diverging program is printed to stderr first. *)
let check_identical ~(what : string) (a : sweep) (b : sweep) : unit =
  if a.quarantine <> b.quarantine then
    failwith
      (Printf.sprintf "%s changed the quarantine report (%d vs %d entries)"
         what
         (List.length a.quarantine)
         (List.length b.quarantine));
  let show = function
    | None -> "quarantined"
    | Some (act, r) ->
        Printf.sprintf "(VF=%d,IF=%d) r=%h" (Rl.Spaces.vf_of act)
          (Rl.Spaces.if_of act) r
  in
  let bad = ref 0 in
  Array.iteri
    (fun i ra ->
      match (ra, b.results.(i)) with
      | None, None -> ()
      | Some (aa, ar), Some (ba, br)
        when aa = ba && Int64.bits_of_float ar = Int64.bits_of_float br ->
          ()
      | ra, rb ->
          incr bad;
          Printf.eprintf "%s: program %d: %s vs %s\n%!" what i (show ra)
            (show rb))
    a.results;
  if !bad > 0 then
    failwith
      (Printf.sprintf "%s diverged on %d/%d programs" what !bad
         (Array.length a.results))

(* ------------------------------------------------------------------ *)
(* BENCH_*.json files                                                   *)
(* ------------------------------------------------------------------ *)

(** A float JSON cannot choke on: finite, plain decimal. *)
let num (f : float) : string =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "0.0"

let contains (hay : string) (needle : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** Structural validation of an emitted BENCH file, so a CI smoke run
    fails on a malformed one: the text starts with an object, its braces
    balance, every [required] key is present, and no non-finite float
    leaked through — matched as a value token, so a key containing "inf"
    passes. *)
let validate ~(required : string list) (path : string) : unit =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (String.length text > 0 && text.[0] = '{') then
    failwith (path ^ ": malformed JSON (does not start with an object)");
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < !min_depth then min_depth := !depth
      end)
    text;
  if !depth <> 0 || !min_depth < 0 then
    failwith (path ^ ": malformed JSON (unbalanced braces)");
  List.iter
    (fun k ->
      if not (contains text (Printf.sprintf "\"%s\":" k)) then
        failwith (Printf.sprintf "%s: missing key %S" path k))
    required;
  List.iter
    (fun bad ->
      if contains text bad then
        failwith (Printf.sprintf "%s: non-finite number %S" path bad))
    [ ": nan"; ": inf"; ": -nan"; ": -inf" ]

(** Write [json] and a trailing newline to [path], then {!validate} it. *)
let write_bench ~(required : string list) (path : string) (json : string) :
    unit =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  validate ~required path;
  Printf.printf "wrote %s\n" path

(** Print the pipeline instrumentation scoreboard (per-phase wall time,
    front-end / reward cache hit rates, evaluation counts, fault and
    quarantine counters).  Drivers and the bench harness call this after a
    run; pair with [Neurovec.Stats.reset] to scope the numbers to one
    experiment. *)
let pipeline_stats () =
  print_string (Neurovec.Stats.report ());
  skipped_report ()
