(* The re-lowering reference the planned path is checked against: a
   checked AST lowered as written, run through the mid-end and the
   pragma-driven planner ({!Vectorizer.Planner.run_modul}), and
   simulated — the paper's mechanism, a compiler honouring the pragmas in
   its input.  [Pipeline.eval_planned] must agree with it bit for bit
   (parallel.engines). *)

open Neurovec

(** Lower [prog], run the mid-end and the planner, and simulate it.
    [name], [kernel] and [bindings] come from the program the AST was
    derived from.

    [fault_key] identifies the (program, decision) point for
    deterministic fault injection; a check against a plan passes
    {!Pipeline.plan_fault_key}, so the same measurement point always
    faults the same way (defaults to [name]).  [sample] numbers the
    median-of-k timing resamples of one point: noise is a pure function
    of (fault seed, fault_key, sample).  The planned path derives its
    resamples with {!Pipeline.exec_seconds}; this is the reference they
    are checked against.  [attempt] numbers the supervisor's retries of
    the whole point: transient faults are a pure function of (fault seed,
    fault_key, attempt). *)
let run_ast ?(options = Pipeline.default_options) ?fault_key ?(sample = 0)
    ?(attempt = 0) ~(name : string)
    ~(kernel : string) ~(bindings : (string * int) list)
    (prog : Minic.Ast.program) : Pipeline.result =
  let fkey = Option.value fault_key ~default:name in
  Pipeline.inject_faults ~faults:options.Pipeline.faults ~name ~fkey ~attempt;
  let m =
    Stats.time Stats.Lower (fun () ->
        try Ir_lower.lower_program ~bindings prog
        with Ir_lower.Error msg ->
          raise (Pipeline.Compile_error (Printf.sprintf "%s: %s" name msg)))
  in
  if options.Pipeline.polly then
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
    Machine.Compile.seconds ~model:options.Pipeline.compile_model m
    *. Faults.timeout_multiplier options.Pipeline.faults ~key:fkey
  in
  let kernel_fn = Pipeline.find_kernel m kernel in
  let exec_cycles =
    Stats.time Stats.Timing (fun () ->
        Machine.Timing.cycles options.Pipeline.target m kernel_fn)
    *. Faults.noise_factor options.Pipeline.faults ~key:fkey ~sample
  in
  let exec_seconds =
    exec_cycles /. (options.Pipeline.target.Machine.Target.ghz *. 1e9)
  in
  Counter.incr Stats.pipeline_runs;
  { Pipeline.modul = m; decisions; compile_seconds; exec_seconds; exec_cycles }
