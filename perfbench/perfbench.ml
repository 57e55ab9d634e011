(** The repository's benchmark: one workload per run, end-to-end metrics
    untraced, per-layer metrics from a traced run.  Normally started by
    [python3 perfbench/run.py], which builds this executable first:

    {v
    perfbench.exe --workload sweep|train|serve --seed N --seconds S
                  --trace 0|1 --cli PATH --work-dir DIR [--smoke]
    v}

    The last line of standard output is the result object; the lines
    before it are the host block, what ran, and (traced) the attribution
    table.  Exit code 0 iff every output check passed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false in
  let cli = ref "" and work_dir = ref "" and rev = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "sweep | train | serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--smoke", Arg.Set smoke, "tiny inputs (the benchmark's own test)");
      ("--cli", Arg.Set_string cli, "path of the built neurovec executable");
      ("--work-dir", Arg.Set_string work_dir, "scratch directory of this run");
      ("--rev", Arg.Set_string rev, "source revision for the host block") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let c =
    { Report.workload = !workload; seed = !seed; seconds = !seconds;
      traced = !trace = 1; jobs = Report.nproc ();
      smoke = !smoke; work_dir = !work_dir; cli = !cli; rev = !rev }
  in
  Neurovec.Supervisor.mkdir_p c.work_dir;
  Neurovec.Parpool.set_jobs c.jobs;
  (* these settings are read lazily, and a lazy value forced by two
     domains at once raises [Lazy.Undefined]; force them here, before any
     pool map can race on them *)
  ignore (Neurovec.Supervisor.deadline ());
  ignore (Neurovec.Supervisor.max_retries ());
  ignore (Neurovec.Supervisor.breaker_window ());
  ignore (Neurovec.Frontend.shard_capacity ());
  Report.host_line c;
  let run =
    match c.workload with
    | "sweep" -> Wl_sweep.run
    | "train" -> Wl_train.run
    | "serve" -> Wl_serve.run
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
  in
  let r = run c in
  Report.print_result c r;
  exit (if r.Report.correct then 0 else 1)
