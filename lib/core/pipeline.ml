(** The compile-and-measure pipeline ("clang/LLVM + the testbed" of
    Figure 3): parse, check, lower, optionally run Polly, clean up with
    LICM/CSE, run the loop vectorizer, then price compile time and
    simulate execution time on the target machine.

    There are two evaluation paths.  {!run} re-lowers per call and honours
    the pragmas written in the source, the paper's mechanism; its body,
    {!run_ast}, is the reference the planned path is checked against.
    Every other entry point — the reward oracle, serve, [predict], the
    CLI's [sweep] and [compile --vf/--if], the figures — is
    {!eval_planned}: a {!plan} applied to the program's shared
    pre-vectorization artifact ({!Frontend.prevec}), whose loops carry
    the source site they were lowered from ([Ir.loop.l_site]), so a plan
    addresses sites exactly as injected pragmas would.  The front end
    runs at most once per distinct program, the mid-end at most once per
    (program, Polly), a program's keys once per (program, options)
    ({!subject}), and measurements are memoized per applied plan.
    Back-end phases are timed under {!Stats}. *)

type options = {
  target : Machine.Target.t;
  polly : bool;
  compile_model : Machine.Compile.t;
  faults : Faults.spec;
      (** fault injection and timing noise; [Faults.none] = off *)
  verify : bool;
      (** translation validation: after measuring a point, interpret the
          transformed module against the scalar reference over a
          content-derived input set ({!Verify.Tv}); a refutation raises
          {!Verify.Tv.Miscompile}, which the reward oracle converts to the
          [Miscompiled] quarantine kind *)
}

let default_options =
  { target = Machine.Target.skylake_avx2; polly = false;
    compile_model = Machine.Compile.default; faults = Faults.none;
    verify = false }

(** [true] when [NEUROVEC_VERIFY] asks for translation validation. *)
let verify_of_env () : bool =
  match Sys.getenv_opt "NEUROVEC_VERIFY" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(** Stable cache key for an options value (used by the reward cache).
    The fault descriptor is empty when injection is off and the verify
    suffix only appears when validation is on, so existing runs keep
    their original keys. *)
let options_key (o : options) : string =
  Printf.sprintf "%s|polly=%b|cm=%g+%g%s%s" o.target.Machine.Target.name
    o.polly o.compile_model.Machine.Compile.base_seconds
    o.compile_model.Machine.Compile.per_instr_seconds
    (Faults.descriptor o.faults)
    (if o.verify then "|verify" else "")

type result = {
  modul : Ir.modul;
  decisions : Vectorizer.Planner.report;
  compile_seconds : float;
  exec_seconds : float;
  exec_cycles : float;
}

exception Compile_error = Frontend.Compile_error

let find_kernel (m : Ir.modul) (name : string) : Ir.func =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> raise (Compile_error (Printf.sprintf "kernel %s not found" name))

(* The seeded fault preamble shared by every evaluation entry point, run
   before any real work.  Order matters and is part of the determinism
   contract: persistent discrete faults first (a point that cannot compile
   can never be rescued by retrying), then the transient class (keyed by
   the attempt index, so the supervisor's retry loop can converge), then
   stalls (a wait of one deadline — checked last so a point that
   deterministically fails does so promptly instead of hanging first). *)
let inject_faults ~(faults : Faults.spec) ~(name : string) ~(fkey : string)
    ~(attempt : int) : unit =
  (match Faults.pick faults ~key:fkey with
  | Some Faults.Compile_fault ->
      raise (Compile_error (name ^ ": injected fault: compile failure"))
  | Some Faults.Trap_fault ->
      raise (Ir_interp.Trap (name ^ ": injected fault: runtime trap"))
  | Some Faults.Fuel_fault ->
      raise
        (Faults.Fuel_exhausted
           (name ^ ": injected fault: interpreter fuel exhausted"))
  | None -> ());
  if Faults.transient_hit faults ~key:fkey ~attempt then
    raise
      (Faults.Transient
         (Printf.sprintf "%s: injected fault: transient testbed failure \
                          (attempt %d)" name attempt));
  if Faults.stall_hit faults ~key:fkey then Supervisor.stall_point ~name

(* ------------------------------------------------------------------ *)
(* Translation validation                                               *)
(* ------------------------------------------------------------------ *)

(* Verdicts are cached content-addressed next to the reward cache: the key
   is (content hash, polly, kernel, applied plans, options), so the many
   requested actions that clamp to one applied plan share one verdict, and
   a warm sweep pays nothing for [--verify].  Cached values are the
   rendered counterexample ([None] = equivalent); verdicts are pure
   functions of the key (the input set derives from its program part —
   no wall clock, no shared RNG), so first-commit-wins races are
   invisible and a [--jobs N] sweep caches exactly the bits a [--jobs 1]
   sweep caches. *)

let verdicts : string option Memo.t = Memo.create ~name:"verdict" ~cap:16384

(** The per-loop applied plans of a planner report, as the stable
    signature string shared by the verdict cache and the point memo. *)
let decisions_sig (report : Vectorizer.Planner.report) : string =
  String.concat ";"
    (List.map
       (fun d ->
         let p = d.Vectorizer.Planner.d_applied in
         string_of_int p.Vectorizer.Transform.vf
         ^ "," ^ string_of_int p.Vectorizer.Transform.if_)
       report)

(* Validate one measured point when [options.verify] is on: raise
   {!Verify.Tv.Miscompile} iff the plan's verdict is a refutation.  Runs
   after measurement, so timings and memos are untouched whether or not
   validation passes.  [modul] is lazy so a verdict-cache hit never
   materializes the transformed module (the memoized eval path skips
   copy + transform entirely on warm points).  The [miscompile] fault
   knob keys its sabotage by the same content key, so a broken-transform
   drill produces the same refutation for every action that clamps to
   the sabotaged plan, at any [--jobs].  [okey] is [options_key options],
   when the caller already has it. *)
let verify_point ?okey ~(options : options) (p : Dataset.Program.t)
    (a : Frontend.artifact) ~(psig : string) ~(modul : Ir.modul Lazy.t) :
    unit =
  if options.verify then begin
    let kernel = p.Dataset.Program.p_kernel in
    let ppkey =
      Printf.sprintf "%s|polly=%b|%s|%s" a.Frontend.a_hash options.polly
        kernel psig
    in
    let okey = match okey with Some k -> k | None -> options_key options in
    let vkey = ppkey ^ "|" ^ okey in
    let outcome =
      Memo.find_or_add verdicts vkey (fun () ->
          let scalar = Frontend.scalar_ref_of p a in
          match
            Verify.Tv.verify
              ~sabotage:(Faults.miscompile_hit options.faults ~key:ppkey)
              ~key:ppkey ~scalar
              ~scalar_key:(a.Frontend.a_hash ^ "|" ^ kernel)
              ~kernel (Lazy.force modul)
          with
          | Verify.Tv.Equivalent -> None
          | Verify.Tv.Refuted cx ->
              Counter.incr Stats.verify_cx;
              Some (Verify.Tv.render cx))
    in
    match outcome with
    | None -> ()
    | Some cx ->
        Counter.incr Stats.verify_refutes;
        raise (Verify.Tv.Miscompile cx)
  end

(** Back end of the re-lowering path: lower a checked AST, run the
    mid-end and the pragma-driven planner ({!Vectorizer.Planner.run_modul}),
    and simulate it.  [name], [kernel] and [bindings] come from the
    program the AST was derived from.

    [fault_key] identifies the (program, decision) point for deterministic
    fault injection; {!run} derives it from the content hash, and a check
    against a plan passes {!plan_fault_key}, so the same measurement point
    always faults the same way (defaults to [name] for direct callers).
    [sample] numbers the median-of-k timing resamples of one point: noise
    is a pure function of (fault seed, fault_key, sample), so results
    never depend on what other evaluations — or other domains — measured
    in between.  The planned path derives its resamples with
    {!exec_seconds}; this is the reference they are checked against.
    [attempt] numbers the supervisor's retries of the whole
    point: transient faults are a pure function of (fault seed, fault_key,
    attempt), so a retry can succeed deterministically. *)
let run_ast ?(options = default_options) ?fault_key ?(sample = 0)
    ?(attempt = 0) ~(name : string)
    ~(kernel : string) ~(bindings : (string * int) list)
    (prog : Minic.Ast.program) : result =
  let fkey = Option.value fault_key ~default:name in
  inject_faults ~faults:options.faults ~name ~fkey ~attempt;
  let m =
    Stats.time Stats.Lower (fun () ->
        try Ir_lower.lower_program ~bindings prog
        with Ir_lower.Error msg ->
          raise (Compile_error (Printf.sprintf "%s: %s" name msg)))
  in
  if options.polly then
    Stats.time Stats.Polly (fun () -> ignore (Polly.Driver.optimize m));
  (* LICM + scalar promotion first (as -licm before the vectorizer in
     LLVM): promotes memory reductions to register reductions the
     vectorizer can widen, and exposes invariant address arithmetic *)
  Stats.time Stats.Scalar_opt (fun () ->
      ignore (Vectorizer.Licm.run_modul m);
      ignore (Vectorizer.Cse.run_modul m);
      ignore (Vectorizer.Licm.run_modul m));
  let decisions =
    Stats.time Stats.Vectorize (fun () -> Vectorizer.Planner.run_modul m)
  in
  Stats.time Stats.Scalar_opt (fun () -> ignore (Vectorizer.Licm.run_modul m));
  let compile_seconds =
    Machine.Compile.seconds ~model:options.compile_model m
    *. Faults.timeout_multiplier options.faults ~key:fkey
  in
  let kernel_fn = find_kernel m kernel in
  let exec_cycles =
    Stats.time Stats.Timing (fun () ->
        Machine.Timing.cycles options.target m kernel_fn)
    *. Faults.noise_factor options.faults ~key:fkey ~sample
  in
  let exec_seconds =
    exec_cycles /. (options.target.Machine.Target.ghz *. 1e9)
  in
  Counter.incr Stats.pipeline_runs;
  { modul = m; decisions; compile_seconds; exec_seconds; exec_cycles }

(** Compile and simulate one program, honouring pragmas in its source:
    the one path that re-lowers per call. *)
let run ?(options = default_options) (p : Dataset.Program.t) : result =
  let a = Frontend.checked p in
  let r =
    run_ast ~options ~fault_key:(a.Frontend.a_hash ^ "|asis")
      ~name:p.Dataset.Program.p_name ~kernel:p.Dataset.Program.p_kernel
      ~bindings:p.Dataset.Program.p_bindings a.Frontend.a_ast
  in
  verify_point ~options p a ~psig:(decisions_sig r.decisions)
    ~modul:(lazy r.modul);
  r

(* ------------------------------------------------------------------ *)
(* The planned path: one shared artifact, a plan per point              *)
(* ------------------------------------------------------------------ *)

(** What a planned point asks of the program's loop sites (extractor
    ordinals).  Each form evaluates exactly as injecting its pragmas with
    [Injector.inject_ast ~clear_others:true] and calling {!run_ast}. *)
type plan =
  | Baseline  (** every site left to the baseline cost model *)
  | All of int * int  (** this (vf, if) pragma on every site *)
  | Sites of (int * Minic.Ast.loop_pragma) list
      (** per-site pragmas; an unlisted site gets the cost model *)

(** The fault key of a planned point — [hash|baseline],
    [hash|vf=..,if=..] or [hash|d:ord=vf,if;..] — so seeded faults and
    timing noise land on the same points whichever entry point asks. *)
let plan_fault_key (a : Frontend.artifact) (plan : plan) : string =
  match plan with
  | Baseline -> a.Frontend.a_hash ^ "|baseline"
  | All (vf, if_) ->
      String.concat ""
        [ a.Frontend.a_hash; "|vf="; string_of_int vf; ",if=";
          string_of_int if_ ]
  | Sites decisions ->
      a.Frontend.a_hash ^ "|d:"
      ^ String.concat ";"
          (List.map
             (fun (ord, pr) ->
               Printf.sprintf "%d=%d,%d" ord
                 (Option.value pr.Minic.Ast.vectorize_width ~default:0)
                 (Option.value pr.Minic.Ast.interleave_count ~default:0))
             decisions)

(* what a loop of the shared artifact requests under [plan]: a site asks
   what its injected pragma would; a loop no site produced (an outer
   [for] whose inner loops all became [while]s) keeps its own pragma, as
   the injector leaves it — such a loop is never vectorizable *)
let request (plan : plan) (l : Ir.loop) : Vectorizer.Transform.plan option =
  match (l.Ir.l_site, plan) with
  | None, _ -> Vectorizer.Planner.request_of_pragma l.Ir.l_pragma
  | Some _, Baseline -> None
  | Some _, All (vf, if_) -> Some { Vectorizer.Transform.vf; if_ }
  | Some k, Sites decisions ->
      Vectorizer.Planner.request_of_pragma (List.assoc_opt k decisions)

(* Evaluation points collapse: legality clamps each requested (vf, if) to
   what the loop admits, so many plans share one applied plan per loop —
   and therefore one transformed module, one compile-time estimate, one
   cycle count.  The memo keys a point by (prevec content, options,
   kernel, applied plan per loop): computing the key costs one planner
   report, and a hit skips copy + transform + LICM + compile modelling +
   timing entirely.  Cached values are raw pre-fault-multiplier floats;
   the timeout factor (a function of the fault key) and the noise (of the
   fault key and the sample) are applied outside the memo, so cached
   points are bit-identical to freshly measured ones.  Timing resamples
   never come back here: {!exec_seconds} derives them from the point's
   raw cycles. *)

(* point key -> (raw compile seconds, raw exec cycles) *)
let points : (float * float) Memo.t = Memo.create ~name:"point" ~cap:16384

(** One planned point: the planner report, the measurements with the
    point's fault multipliers applied (timing noise at sample 0), what
    later samples derive from, and the transformed module, built on
    demand and at most once. *)
type point = {
  pt_report : Vectorizer.Planner.report;
  pt_compile_seconds : float;
  pt_exec_seconds : float;
  pt_exec_cycles : float;
  pt_raw_cycles : float;  (** cycle count before timing noise *)
  pt_fault_key : string;  (** the plan's fault key, which keys the noise *)
  pt_modul : Ir.modul Lazy.t;
}

(** Exec seconds of timing sample [sample] of a point: the raw cycles
    times the sample's noise factor, at the target's clock — at sample 0,
    the point's own [pt_exec_seconds].  Nothing else about a point
    depends on the sample (discrete faults, transients, stalls and
    verdicts are keyed by the fault key and the attempt), so the
    median-of-k resamples of one point are derived here, not
    re-evaluated. *)
let exec_seconds ~(options : options) (pt : point) ~(sample : int) : float =
  (pt.pt_raw_cycles
   *. Faults.noise_factor options.faults ~key:pt.pt_fault_key ~sample)
  /. (options.target.Machine.Target.ghz *. 1e9)

(** A program under one options value, and what every planned point of
    the pair shares, derived once ({!subjects}) instead of per point: the
    content hash, the options key and the prevec key.  The cycle model's
    per-module constants are filled in by the first point that prices a
    miss.  A subject lowers nothing: each point still runs the front-end
    lookup, the fault preamble and the mid-end lookup, in that order, so
    a parse error comes before an injected fault, and an injected fault
    before a lowering error. *)
type subject = {
  s_program : Dataset.Program.t;
  s_options : options;
  s_hash : string;  (** {!Frontend.hash_program} of the program *)
  s_okey : string;  (** {!options_key} of the options *)
  s_prevec_key : string;  (** {!Frontend.prevec_key} *)
  s_consts : Machine.Timing.consts option Atomic.t;
      (** the cycle model's constants for the prevec module on the
          options' target; domains racing to fill it compute the same
          value *)
}

(** The subjects of [programs] under [options], one per program. *)
let subjects ?(options = default_options) (programs : Dataset.Program.t array)
    : subject array =
  let okey = options_key options in
  Array.map
    (fun p ->
      let h = Frontend.hash_program p in
      { s_program = p; s_options = options; s_hash = h; s_okey = okey;
        s_prevec_key = Frontend.prevec_key ~polly:options.polly h;
        s_consts = Atomic.make None })
    programs

let subject ?options (p : Dataset.Program.t) : subject =
  (subjects ?options [| p |]).(0)

let timing_consts (s : subject) (pv : Frontend.prevec) : Machine.Timing.consts
    =
  match Atomic.get s.s_consts with
  | Some c -> c
  | None ->
      let c = Machine.Timing.consts s.s_options.target pv.Frontend.pv_modul in
      Atomic.set s.s_consts (Some c);
      c

(** Evaluate [plan] on the subject program's shared pre-vectorization
    artifact under the subject's options: the one evaluator behind the
    oracle, {!run_baseline}, {!run_with_pragma} and
    {!run_with_decisions}.  The planner report comes from the prepared
    legality without transforming; a point-memo miss or a verdict miss
    builds the transformed module (an {!Ir.copy_modul} of the artifact,
    vectorized and LICM'd), once.  [attempt] numbers the supervisor's
    retries, as in {!run_ast}; the point is timing sample 0, and
    {!exec_seconds} derives the others.  Bit-identical to injecting the
    plan's pragmas and re-lowering: the mid-end is pragma-oblivious and
    deterministic, the copy preserves register numbering, and the fault
    key is the plan's. *)
let eval_planned ?(attempt = 0) (s : subject) ~(plan : plan) : point =
  let options = s.s_options and p = s.s_program in
  let a = Frontend.checked ~hash:s.s_hash p in
  let fkey = plan_fault_key a plan in
  inject_faults ~faults:options.faults ~name:p.Dataset.Program.p_name ~fkey
    ~attempt;
  let pv =
    Frontend.prevec_of ~polly:options.polly ~key:s.s_prevec_key p a
  in
  let preps = pv.Frontend.pv_preps in
  let report = Vectorizer.Planner.report_prepared ~request:(request plan) preps in
  let modul =
    lazy
      (let m = Ir.copy_modul pv.Frontend.pv_modul in
       Stats.time Stats.Vectorize (fun () ->
           Vectorizer.Planner.apply_prepared m preps report);
       Stats.time Stats.Scalar_opt (fun () ->
           ignore (Vectorizer.Licm.run_modul m));
       m)
  in
  let psig = decisions_sig report in
  let key =
    String.concat "|"
      [ s.s_prevec_key; s.s_okey; p.Dataset.Program.p_kernel; psig ]
  in
  let compile_raw, cycles_raw =
    Memo.find_or_add points key (fun () ->
        let m = Lazy.force modul in
        let compile_raw =
          Machine.Compile.seconds ~model:options.compile_model m
        in
        let kernel_fn = find_kernel m p.Dataset.Program.p_kernel in
        ( compile_raw,
          Stats.time Stats.Timing (fun () ->
              Machine.Timing.cycles_with (timing_consts s pv) kernel_fn) ))
  in
  let exec_cycles =
    cycles_raw *. Faults.noise_factor options.faults ~key:fkey ~sample:0
  in
  Counter.incr Stats.pipeline_runs;
  (* validate after measuring; a verdict-cache hit never builds the
     transformed module, so warm verified sweeps stay memo-fast *)
  verify_point ~okey:s.s_okey ~options p a ~psig ~modul;
  {
    pt_report = report;
    pt_compile_seconds =
      compile_raw *. Faults.timeout_multiplier options.faults ~key:fkey;
    pt_exec_seconds =
      exec_cycles /. (options.target.Machine.Target.ghz *. 1e9);
    pt_exec_cycles = exec_cycles;
    pt_raw_cycles = cycles_raw;
    pt_fault_key = fkey;
    pt_modul = modul;
  }

let run_planned ?options ?attempt (p : Dataset.Program.t) plan : result =
  let pt = eval_planned ?attempt (subject ?options p) ~plan in
  { modul = Lazy.force pt.pt_modul; decisions = pt.pt_report;
    compile_seconds = pt.pt_compile_seconds;
    exec_seconds = pt.pt_exec_seconds; exec_cycles = pt.pt_exec_cycles }

(** Compile with the baseline cost model only (existing pragmas removed). *)
let run_baseline ?options ?attempt (p : Dataset.Program.t) : result =
  run_planned ?options ?attempt p Baseline

(** Compile with a specific (vf, if) pragma on every innermost loop. *)
let run_with_pragma ?options ?attempt (p : Dataset.Program.t) ~vf ~if_ :
    result =
  run_planned ?options ?attempt p (All (vf, if_))

(** Compile with per-loop pragma decisions.  [attempt] numbers the
    supervisor's retries of the whole point — the serve daemon threads it
    so transient faults on the decision path recover deterministically. *)
let run_with_decisions ?options ?attempt (p : Dataset.Program.t)
    ~(decisions : (int * Minic.Ast.loop_pragma) list) : result =
  run_planned ?options ?attempt p (Sites decisions)
