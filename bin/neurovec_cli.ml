(* The neurovec command-line driver.

   Subcommands:
     compile  — compile a C file, honouring its loop pragmas or --vf/--if,
                and report the plan and the simulated times
     sweep    — exhaustive (VF, IF) grid for a C file
     dataset  — generate the synthetic loop corpus (to a directory or stdout)
     train    — train the RL agent and report greedy performance
     predict  — inject a trained agent's pragmas into a C file
     serve    — the vectorization daemon (answers what predict prints)
     request  — send one request to a running daemon
     fuzz     — hunt legality bugs by differential interpretation
     soak     — chaos-soak self-healing training

   Examples:
     dune exec bin/neurovec_cli.exe -- compile examples/dot.c --vf 8 --if 2
     dune exec bin/neurovec_cli.exe -- sweep examples/dot.c
     dune exec bin/neurovec_cli.exe -- dataset --count 100 --out /tmp/loops
     dune exec bin/neurovec_cli.exe -- train --programs 200 --steps 4000 \
       --save /tmp/agent.ckpt
     dune exec bin/neurovec_cli.exe -- predict examples/dot.c \
       --model /tmp/agent.ckpt *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A program's symbolic-constant bindings travel beside its source as
   [<name>.bindings], one [NAME=VALUE] per line; [dataset --out] writes
   one for every program that has bindings. *)
let bindings_path path = Filename.remove_extension path ^ ".bindings"

(* a malformed line is a compile error of the program it binds *)
let parse_bindings path : (string * int) list =
  String.split_on_char '\n' (read_file path)
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (n, line) ->
         if line = "" then None
         else
           try
             Scanf.sscanf line "%[A-Za-z0-9_]=%d%!" (fun k v ->
                 if k = "" then failwith "no name" else Some (k, v))
           with Scanf.Scan_failure _ | Failure _ | End_of_file ->
             raise
               (Neurovec.Pipeline.Compile_error
                  (Printf.sprintf "%s:%d: expected NAME=VALUE, got %S" path n
                     line)))

let program_of_file ?(kernel = "kernel") path =
  let b = bindings_path path in
  let bindings = if Sys.file_exists b then parse_bindings b else [] in
  Dataset.Program.make ~kernel ~bindings ~family:"cli"
    (Filename.basename path) (read_file path)

(** [--jobs N]: evaluation-pool size for the parallel measurement fan-out;
    overrides [NEUROVEC_JOBS].  1 forces the exact serial path. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:
          "Parallel evaluation domains (overrides NEUROVEC_JOBS; 1 = \
           serial). Results are bit-identical at any value.")

let apply_jobs jobs =
  Option.iter Neurovec.Parpool.set_jobs jobs;
  Neurovec.Parpool.warn_oversubscribed ~prog:"neurovec"

(** [--deadline S]: per-evaluation watchdog budget (overrides
    NEUROVEC_DEADLINE). *)
let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ]
        ~doc:
          "Watchdog deadline in seconds per evaluation (overrides \
           NEUROVEC_DEADLINE). Stalled evaluations past the deadline are \
           cancelled and penalized as hung.")

(** [--max-retries N]: retry budget for transient faults (overrides
    NEUROVEC_MAX_RETRIES). *)
let max_retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-retries" ]
        ~doc:
          "Retry budget for transient evaluation faults (overrides \
           NEUROVEC_MAX_RETRIES). Retries are deterministic: attempt k of \
           a given measurement fails or succeeds identically at any --jobs.")

let apply_supervision deadline max_retries =
  Option.iter Neurovec.Supervisor.set_deadline deadline;
  Option.iter Neurovec.Supervisor.set_max_retries max_retries

(** [--verify]: run the translation validator on every evaluated plan
    (overrides [NEUROVEC_VERIFY]). *)
let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Validate every evaluated plan against the scalar reference by \
           differential interpretation (also enabled by NEUROVEC_VERIFY=1). \
           A refuted plan quarantines the program as miscompiled, with a \
           minimized counterexample.")

let verify_on flag = flag || Neurovec.Pipeline.verify_of_env ()

(** Report malformed input, corrupt checkpoints and quarantined programs
    as a one-line error (exit 1) instead of cmdliner's uncaught-exception
    banner. *)
let or_compile_error (f : unit -> unit) : unit =
  try f () with
  | Neurovec.Pipeline.Compile_error msg ->
      Printf.eprintf "neurovec: compile error: %s\n" msg;
      exit 1
  | Rl.Checkpoint.Bad_checkpoint msg ->
      Printf.eprintf "neurovec: bad checkpoint: %s\n" msg;
      exit 1
  | Neurovec.Reward.Quarantined (name, why) ->
      Printf.eprintf "neurovec: %s quarantined: %s\n" name why;
      exit 1
  | Neurovec.Supervisor.Hung msg ->
      Printf.eprintf "neurovec: evaluation hung: %s\n" msg;
      exit 1
  | Neurovec.Faults.Transient msg ->
      Printf.eprintf "neurovec: transient failure persisted: %s\n" msg;
      exit 1
  | Ir_interp.Trap msg ->
      Printf.eprintf "neurovec: runtime trap: %s\n" msg;
      exit 1
  | Neurovec.Faults.Fuel_exhausted msg ->
      Printf.eprintf "neurovec: fuel exhausted: %s\n" msg;
      exit 1
  | Verify.Tv.Miscompile msg ->
      Printf.eprintf "neurovec: translation validation refuted the plan: %s\n"
        msg;
      exit 1
  | Verify.Tv.Over_budget msg ->
      Printf.eprintf "neurovec: translation validation refused: %s\n" msg;
      exit 1
  | Rl.Sentinel.Unrecoverable msg ->
      Printf.eprintf
        "neurovec: training unrecoverable: %s (rollback budget exhausted)\n"
        msg;
      exit 1
  | Fsio.Disk_fault { op; path; kind } ->
      Printf.eprintf "neurovec: disk fault: %s writing %s (%s)\n"
        (Fsio.fault_kind_name kind) path op;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "neurovec: %s\n" msg;
      exit 1

(* ---- compile ----------------------------------------------------- *)

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let vf = Arg.(value & opt (some int) None & info [ "vf" ] ~doc:"Force vectorize_width.") in
  let if_ = Arg.(value & opt (some int) None & info [ "if" ] ~doc:"Force interleave_count.") in
  let polly = Arg.(value & flag & info [ "polly" ] ~doc:"Run the polyhedral pipeline first.") in
  let kernel = Arg.(value & opt string "kernel" & info [ "kernel" ] ~doc:"Function to time.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print pipeline phase timings and cache stats.") in
  let run file vf if_ polly kernel stats =
    or_compile_error @@ fun () ->
    let p = program_of_file ~kernel file in
    let options = { Neurovec.Pipeline.default_options with polly } in
    let result =
      match (vf, if_) with
      | None, None ->
          (* the pragmas written on the source's own loop sites *)
          let a = Neurovec.Frontend.checked p in
          Neurovec.Pipeline.run_with_decisions ~options p
            ~decisions:(Neurovec.Extractor.pragmas a.Neurovec.Frontend.a_ast)
      | _ ->
          (* a lone flag requests what its pragma would: the other half 1 *)
          let v = Option.value vf ~default:1 and i = Option.value if_ ~default:1 in
          Neurovec.Pipeline.run_with_pragma ~options p ~vf:v ~if_:i
    in
    List.iter
      (fun d ->
        Printf.printf "loop %d: VF=%d IF=%d%s%s\n" d.Vectorizer.Planner.d_loop_id
          d.Vectorizer.Planner.d_applied.Vectorizer.Transform.vf
          d.Vectorizer.Planner.d_applied.Vectorizer.Transform.if_
          (match d.Vectorizer.Planner.d_requested with
          | Some p ->
              Printf.sprintf " (pragma requested VF=%d IF=%d)"
                p.Vectorizer.Transform.vf p.Vectorizer.Transform.if_
          | None -> " (baseline cost model)")
          (if d.Vectorizer.Planner.d_legal then ""
           else
             Printf.sprintf " [not vectorizable: %s]"
               (String.concat "; " d.Vectorizer.Planner.d_reasons)))
      result.Neurovec.Pipeline.decisions;
    Printf.printf "compile time: %.3f s (simulated)\n"
      result.Neurovec.Pipeline.compile_seconds;
    Printf.printf "execution:    %.3e s  (%.0f cycles on %s)\n"
      result.Neurovec.Pipeline.exec_seconds result.Neurovec.Pipeline.exec_cycles
      options.Neurovec.Pipeline.target.Machine.Target.name;
    if stats then print_string (Neurovec.Stats.report ())
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a mini-C file and simulate it.")
    Term.(const run $ file $ vf $ if_ $ polly $ kernel $ stats)

(* ---- sweep -------------------------------------------------------- *)

let sweep_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let kernel = Arg.(value & opt string "kernel" & info [ "kernel" ]) in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print pipeline phase timings and cache stats.") in
  let run file kernel stats verify jobs deadline max_retries =
    or_compile_error @@ fun () ->
    apply_jobs jobs;
    apply_supervision deadline max_retries;
    let p = program_of_file ~kernel file in
    let options =
      { Neurovec.Pipeline.default_options with
        faults = Neurovec.Faults.of_env ();
        verify = verify_on verify }
    in
    (* transient faults are retried per point, as in the oracle *)
    let base =
      Neurovec.Supervisor.with_retries (fun ~attempt ->
          Neurovec.Pipeline.run_baseline ~options ~attempt p)
    in
    let t_base = base.Neurovec.Pipeline.exec_seconds in
    (* evaluate the whole grid on the pool, then print in row order *)
    let grid =
      Array.concat
        (Array.to_list
           (Array.map
              (fun vf -> Array.map (fun if_ -> (vf, if_)) Rl.Spaces.if_values)
              Rl.Spaces.vf_values))
    in
    let cells =
      Neurovec.Parpool.map
        (fun (vf, if_) ->
          let r =
            Neurovec.Supervisor.with_retries (fun ~attempt ->
                Neurovec.Pipeline.run_with_pragma ~options ~attempt p ~vf
                  ~if_)
          in
          t_base /. r.Neurovec.Pipeline.exec_seconds)
        grid
    in
    Printf.printf "speedup over the baseline cost model:\n%6s" "VF\\IF";
    Array.iter (fun i -> Printf.printf "%8d" i) Rl.Spaces.if_values;
    print_newline ();
    let n_if = Array.length Rl.Spaces.if_values in
    Array.iteri
      (fun row vf ->
        Printf.printf "%6d" vf;
        Array.iteri
          (fun col _ -> Printf.printf "%8.2f" cells.((row * n_if) + col))
          Rl.Spaces.if_values;
        print_newline ())
      Rl.Spaces.vf_values;
    if stats then print_string (Neurovec.Stats.report ())
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Brute-force the (VF, IF) grid for a file.")
    Term.(const run $ file $ kernel $ stats $ verify_arg $ jobs_arg
          $ deadline_arg $ max_retries_arg)

(* ---- dataset ------------------------------------------------------ *)

let dataset_cmd =
  let count = Arg.(value & opt int 100 & info [ "count"; "n" ] ~doc:"Programs to generate.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Directory to write .c files into, each with a .bindings file beside it when the program binds symbolic constants.") in
  let run count seed out =
    or_compile_error @@ fun () ->
    let corpus = Dataset.Loopgen.generate ~seed count in
    match out with
    | None ->
        Array.iter
          (fun p ->
            Printf.printf "// --- %s (%s)\n" p.Dataset.Program.p_name
              p.Dataset.Program.p_family;
            (* the sidecar's pairs, so a listed program compiles as given *)
            if p.Dataset.Program.p_bindings <> [] then
              Printf.printf "// bindings: %s\n"
                (String.concat " "
                   (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                      p.Dataset.Program.p_bindings));
            Printf.printf "%s\n" p.Dataset.Program.p_source)
          corpus
    | Some dir ->
        Fsio.mkdir_p dir;
        let write path text =
          Out_channel.with_open_text path (fun oc -> output_string oc text)
        in
        Array.iter
          (fun p ->
            let path = Filename.concat dir (p.Dataset.Program.p_name ^ ".c") in
            write path p.Dataset.Program.p_source;
            if p.Dataset.Program.p_bindings <> [] then
              write (bindings_path path)
                (String.concat ""
                   (List.map (fun (k, v) -> Printf.sprintf "%s=%d\n" k v)
                      p.Dataset.Program.p_bindings)))
          corpus;
        Printf.printf "wrote %d programs to %s\n" count dir
  in
  Cmd.v (Cmd.info "dataset" ~doc:"Generate the synthetic loop corpus.")
    Term.(const run $ count $ seed $ out)

(* ---- train -------------------------------------------------------- *)

let train_cmd =
  let programs = Arg.(value & opt int 200 & info [ "programs" ] ~doc:"Corpus size.") in
  let steps = Arg.(value & opt int 5000 & info [ "steps" ] ~doc:"Environment steps (cumulative when resuming).") in
  let seed = Arg.(value & opt int 3 & info [ "seed" ]) in
  let batch = Arg.(value & opt int 500 & info [ "batch" ]) in
  let lr = Arg.(value & opt float 5e-4 & info [ "lr" ]) in
  let save = Arg.(value & opt (some string) None & info [ "save" ] ~doc:"Write the trained agent (resumable checkpoint) to FILE.") in
  let ckpt_every = Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~doc:"Also checkpoint to the --save path every N environment steps (crash-safe atomic writes; 0 disables periodic checkpoints).") in
  let keep = Arg.(value & opt int 3 & info [ "keep-checkpoints" ] ~doc:"Known-good checkpoint generations retained next to the --save path — the lineage ring the sentinel rollback restores from.") in
  let resume = Arg.(value & opt (some string) None & info [ "resume" ] ~doc:"Resume training from a checkpoint written by --save, restoring step count, statistics history, optimizer state and rollback count.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print pipeline phase timings, cache and fault statistics.") in
  let run programs steps seed batch lr save ckpt_every keep resume stats
      verify jobs deadline max_retries =
    or_compile_error @@ fun () ->
    apply_jobs jobs;
    apply_supervision deadline max_retries;
    Neurovec.Supervisor.install_signal_handlers ();
    let corpus = Dataset.Loopgen.generate ~seed programs in
    (* fault injection / timing noise, if requested via NEUROVEC_FAULTS;
       the disk knobs additionally arm the durable-write fault layer *)
    let faults = Neurovec.Faults.of_env () in
    Neurovec.Faults.install_disk faults;
    let options =
      { Neurovec.Pipeline.default_options with
        faults; verify = verify_on verify }
    in
    (* fail fast, with a one-line typed error, on the two setup mistakes
       that would otherwise surface hundreds of steps in: a --resume file
       that does not exist, and a --save destination we cannot write *)
    (match resume with
    | Some path when not (Sys.file_exists path) ->
        raise
          (Rl.Checkpoint.Bad_checkpoint
             (Printf.sprintf "%s: no such file" path))
    | _ -> ());
    (match save with
    | None -> ()
    | Some path -> (
        Fsio.mkdir_p (Filename.dirname path);
        let probe = path ^ ".probe" in
        match open_out_bin probe with
        | oc ->
            close_out_noerr oc;
            (try Sys.remove probe with Sys_error _ -> ())
        | exception Sys_error msg ->
            raise
              (Sys_error
                 (Printf.sprintf "checkpoint destination not writable: %s"
                    msg))));
    let resumed = Option.map Rl.Checkpoint.load_full resume in
    (* the write-ahead reward journal rides next to the checkpoint: a
       killed run's journal is replayed before the probes, so already
       measured episodes are never re-evaluated on resume *)
    let journal = Option.map (fun p -> p ^ ".journal") save in
    let fw =
      Neurovec.Framework.create
        ?agent:(Option.map fst resumed)
        ?journal ~options ~seed corpus
    in
    let replayed = Counter.get Neurovec.Stats.journal_replayed in
    if replayed > 0 then
      Printf.printf "replayed %d journal records from %s\n%!" replayed
        (Option.get journal);
    List.iter
      (fun (name, why) ->
        Printf.eprintf "neurovec: quarantined %s: %s\n%!" name why)
      fw.Neurovec.Framework.skipped;
    (match Option.bind resumed snd with
    | Some st ->
        Printf.printf "resuming at step %d (update %d)\n%!"
          st.Rl.Train_state.ts_steps st.Rl.Train_state.ts_update
    | None ->
        if resume <> None then
          Printf.printf "checkpoint has no training state; starting fresh from its weights\n%!");
    let hyper = { Rl.Ppo.default_hyper with batch_size = batch; lr } in
    ignore
      (Neurovec.Framework.train fw ~hyper ~total_steps:steps
         ?checkpoint_path:save ~checkpoint_every:ckpt_every
         ~keep_checkpoints:keep
         ~sentinel:(Neurovec.Framework.sentinel_of_faults faults)
         ~stop:Neurovec.Supervisor.shutdown_requested
         ?resume:(Option.bind resumed snd)
         ~progress:(fun st ->
           Printf.printf "update %3d  steps %6d  reward_mean %+0.3f  loss %8.3f\n%!"
             st.Rl.Ppo.update st.Rl.Ppo.steps st.Rl.Ppo.reward_mean
             st.Rl.Ppo.loss));
    let rolled = Counter.get Rl.Sentinel.rollbacks in
    if rolled > 0 then
      Printf.printf
        "self-healed: %d sentinel rollback%s (audit trail: %s)\n%!" rolled
        (if rolled = 1 then "" else "s")
        (match save with
        | Some p -> p ^ ".lineage"
        | None -> "in-memory only, no --save path");
    if Neurovec.Supervisor.shutdown_requested () then begin
      (match save with
      | Some path ->
          Printf.printf
            "interrupted: checkpoint flushed to %s; rerun with --resume %s \
             to continue\n"
            path path
      | None ->
          Printf.printf
            "interrupted: no --save path, training state discarded\n");
      if stats then print_string (Neurovec.Stats.report ())
    end
    else begin
      let greedy =
        Rl.Ppo.evaluate fw.Neurovec.Framework.agent
          ~samples:fw.Neurovec.Framework.samples
          ~reward:(fun i a ->
            Neurovec.Reward.reward fw.Neurovec.Framework.oracle i a)
      in
      Printf.printf "greedy mean reward over the corpus: %+0.3f\n" greedy;
      (match fw.Neurovec.Framework.skipped with
      | [] -> ()
      | skipped ->
          Printf.printf "quarantined programs: %d (excluded from training)\n"
            (List.length skipped));
      (match save with
      | Some path -> Printf.printf "agent saved to %s\n" path
      | None -> ());
      if stats then print_string (Neurovec.Stats.report ())
    end
  in
  Cmd.v (Cmd.info "train" ~doc:"Train the PPO vectorization agent.")
    Term.(const run $ programs $ steps $ seed $ batch $ lr $ save $ ckpt_every
          $ keep $ resume $ stats $ verify_arg $ jobs_arg $ deadline_arg
          $ max_retries_arg)

(* ---- predict ------------------------------------------------------ *)

let predict_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let model = Arg.(required & opt (some file) None & info [ "model" ] ~doc:"Trained agent checkpoint.") in
  let kernel = Arg.(value & opt string "kernel" & info [ "kernel" ]) in
  let run file model kernel =
    or_compile_error @@ fun () ->
    let agent = Rl.Checkpoint.load model in
    let p = program_of_file ~kernel file in
    let decisions = Neurovec.Framework.predict_decisions agent p in
    let base = Neurovec.Pipeline.run_baseline p in
    let rl = Neurovec.Pipeline.run_with_decisions p ~decisions in
    print_string (Serve.Server.answer_text ~p ~decisions ~base ~rl)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Inject pragmas predicted by a trained agent into a file.")
    Term.(const run $ file $ model $ kernel)

(* ---- serve -------------------------------------------------------- *)

let serve_cmd =
  let model = Arg.(required & opt (some file) None & info [ "model" ] ~doc:"Trained agent checkpoint to serve.") in
  let socket = Arg.(value & opt (some string) None & info [ "socket" ] ~doc:"Unix-domain socket path to listen on; omitted = frames over stdin/stdout.") in
  let store = Arg.(value & opt (some string) None & info [ "store" ] ~doc:"On-disk reply store: a restarted daemon answers warm, bit-identically.") in
  let max_queue = Arg.(value & opt int 128 & info [ "max-queue" ] ~doc:"Bounded request queue; beyond it requests are shed with a structured overloaded reply.") in
  let max_batch = Arg.(value & opt int 32 & info [ "max-batch" ] ~doc:"Most queued misses one worker takes at once; they share one batched forward pass.") in
  let report_every = Arg.(value & opt float 0.0 & info [ "report-every" ] ~doc:"Seconds between one-line self-reports on stderr (0 = off).") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the full statistics report after the drain.") in
  let run model socket store max_queue max_batch report_every stats verify
      jobs deadline max_retries =
    or_compile_error @@ fun () ->
    apply_jobs jobs;
    apply_supervision deadline max_retries;
    Neurovec.Supervisor.install_signal_handlers ();
    let agent = Rl.Checkpoint.load model in
    let faults = Neurovec.Faults.of_env () in
    (* the on-disk reply store writes through the durable-write fault
       layer; arm it so the spec's disk knobs reach it *)
    Neurovec.Faults.install_disk faults;
    let options =
      { Neurovec.Pipeline.default_options with
        faults; verify = verify_on verify }
    in
    let server =
      Serve.Server.create ~options ?store_path:store ~max_queue ~max_batch
        ~report_every agent
    in
    (match socket with
    | Some path ->
        Printf.eprintf "neurovec serve: listening on %s\n%!" path;
        Serve.Server.run_socket server ~path
    | None -> Serve.Server.run_stdio server);
    Printf.eprintf "neurovec serve: drained, store flushed\n%!";
    if stats then print_string (Neurovec.Stats.report ());
    Neurovec.Supervisor.uninstall_signal_handlers ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the vectorization daemon: load a checkpoint once, answer \
          length-prefixed requests, answer stored replies at once, measure \
          misses on --jobs long-lived worker domains (misses queued together \
          share one forward pass), shed overload explicitly, and drain \
          gracefully on SIGTERM.")
    Term.(const run $ model $ socket $ store $ max_queue $ max_batch
          $ report_every $ stats $ verify_arg $ jobs_arg $ deadline_arg
          $ max_retries_arg)

(* ---- fuzz --------------------------------------------------------- *)

let fuzz_cmd =
  let legality =
    Arg.(
      value & flag
      & info [ "legality" ]
          ~doc:
            "Hunt for plans the legality analysis accepts but translation \
             validation refutes, over dependence-boundary loops.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Generator seed; a refutation reproduces from its seed alone.") in
  let iterations = Arg.(value & opt int 500 & info [ "iterations"; "n" ] ~doc:"Fuzz cases to generate.") in
  let deadline_s = Arg.(value & opt (some float) None & info [ "deadline-s" ] ~doc:"Wall-clock budget in seconds; truncates the case count but never changes a verdict, so a bounded CI hunt reproduces by seed.") in
  let run legality seed iterations deadline_s =
    or_compile_error @@ fun () ->
    if not legality then begin
      Printf.eprintf "neurovec: fuzz requires --legality (the only mode)\n";
      exit 2
    end;
    let refutations, st =
      Verify.Loopfuzz.hunt ?deadline_s ~seed ~iterations ()
    in
    let ran = st.Verify.Loopfuzz.hs_ran in
    let elapsed = st.Verify.Loopfuzz.hs_elapsed_s in
    Printf.printf "fuzz --legality: %d/%d cases ran, %d refutation%s\n" ran
      iterations
      (List.length refutations)
      (if List.length refutations = 1 then "" else "s");
    Printf.printf "coverage: %.1f iterations/sec over %.1fs%s; families: %s\n"
      (if elapsed > 0.0 then float_of_int ran /. elapsed else 0.0)
      elapsed
      (if st.Verify.Loopfuzz.hs_deadline_hit then " (deadline expired)"
       else "")
      (String.concat " "
         (List.map
            (fun (f, n) -> Printf.sprintf "%s=%d" f n)
            st.Verify.Loopfuzz.hs_families));
    List.iter
      (fun r ->
        Printf.printf
          "\nREFUTED %s (requested VF=%d IF=%d; applied %s)\n  %s\n%s\n"
          r.Verify.Loopfuzz.r_name r.Verify.Loopfuzz.r_vf
          r.Verify.Loopfuzz.r_if r.Verify.Loopfuzz.r_applied
          r.Verify.Loopfuzz.r_cx r.Verify.Loopfuzz.r_source)
      refutations;
    if refutations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the legality analysis: generate dependence-boundary loops, \
          apply plans the clamp accepts, and refute them by differential \
          interpretation. Exits 1 on any refutation.")
    Term.(const run $ legality $ seed $ iterations $ deadline_s)

(* ---- soak --------------------------------------------------------- *)

let soak_cmd =
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Chaos seed: kill times, signals and every injected fault derive from it, so a failing soak reproduces from the seed alone.") in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Scratch directory to run in (kept for autopsy; default: a temp directory, removed on success).") in
  let budget = Arg.(value & opt float 75.0 & info [ "time-budget" ] ~doc:"Wall-clock bound in seconds; phases that cannot finish in budget fail their invariants instead of hanging.") in
  let run seed out budget =
    or_compile_error @@ fun () ->
    if not (Experiments.Soak.run ?out ~time_budget:budget ~seed ()) then
      exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos-soak the self-healing training layer: train under random \
          SIGKILL/SIGTERM, injected disk faults and NaN-gradient \
          poisoning, then verify the recovery invariants (rollback \
          exercised and journaled, bit-identical resume, monotonic \
          progress, no torn files, store recovery). Exits 1 if any \
          invariant fails.")
    Term.(const run $ seed $ out $ budget)

(* ---- request ------------------------------------------------------- *)

let request_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let socket = Arg.(required & opt (some string) None & info [ "socket" ] ~doc:"Unix-domain socket of a running daemon.") in
  let kernel = Arg.(value & opt string "kernel" & info [ "kernel" ]) in
  let client = Arg.(value & opt string "cli" & info [ "client" ] ~doc:"Client identity for the daemon's per-client circuit breaker.") in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Health check only.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Fetch the daemon's statistics report.") in
  let run file socket kernel client ping stats =
    or_compile_error @@ fun () ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "neurovec: cannot connect to %s: %s\n" socket
         (Unix.error_message e);
       exit 1);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let req =
      if ping then Serve.Protocol.Ping
      else if stats then Serve.Protocol.Stats_req
      else
        match file with
        | None ->
            Printf.eprintf "neurovec: request needs FILE (or --ping/--stats)\n";
            exit 2
        | Some path ->
            Serve.Protocol.Vectorize
              { v_client = client; v_name = Filename.basename path;
                v_kernel = kernel; v_source = read_file path }
    in
    Serve.Protocol.write_frame oc (Serve.Protocol.encode_request req);
    (match Serve.Protocol.read_frame ic with
    | Serve.Protocol.Frame payload -> (
        match Serve.Protocol.decode_reply payload with
        | Serve.Protocol.Answer text -> print_string text
        | Serve.Protocol.Pong -> print_endline "pong"
        | Serve.Protocol.Stats_reply text -> print_string text
        | Serve.Protocol.Error (kind, msg) ->
            Printf.eprintf "neurovec: %s: %s\n"
              (Serve.Protocol.error_name kind)
              msg;
            (* temp-fail exit for conditions a client should retry later *)
            exit
              (match kind with
              | `Overloaded | `Shutting_down | `Breaker_open -> 75
              | _ -> 1))
    | Serve.Protocol.Eof ->
        Printf.eprintf "neurovec: daemon closed the connection\n";
        exit 1
    | Serve.Protocol.Too_big n ->
        Printf.eprintf "neurovec: daemon sent an oversized frame (%d)\n" n;
        exit 1);
    Unix.close fd
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running daemon; a successful answer prints \
          exactly what 'neurovec predict' would.")
    Term.(const run $ file $ socket $ kernel $ client $ ping $ stats)

let () =
  let info =
    Cmd.info "neurovec" ~version:"1.0.0"
      ~doc:"End-to-end loop vectorization with deep reinforcement learning."
  in
  exit (Cmd.eval (Cmd.group info [ compile_cmd; sweep_cmd; dataset_cmd; train_cmd; predict_cmd; serve_cmd; request_cmd; fuzz_cmd; soak_cmd ]))
