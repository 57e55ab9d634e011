(* The benchmark harness: regenerates every figure of the paper's
   evaluation (there are no numbered tables; Figures 1, 2, 5, 6, 7, 8, 9
   are the artifacts), plus the ablation benches DESIGN.md calls out and a
   Bechamel microbenchmark suite for the toolchain itself.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- fig1 fig7  # selected experiments
     dune exec bench/main.exe -- --jobs 4 sweepbench  # serial vs pool
     NEUROVEC_SCALE=0.2 dune exec ...       # faster smoke run

   Results and paper-vs-measured commentary are recorded in
   EXPERIMENTS.md. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig1", "dot-product (VF, IF) grid vs baseline", Experiments.Fig1.print);
    ("fig2", "brute force vs baseline on the LLVM suite", Experiments.Fig2.print);
    ("fig5", "hyperparameter sweeps (lr / arch / batch)", Experiments.Fig5.print);
    ("fig6", "action-space definitions", Experiments.Fig6.print);
    ("fig7", "12 held-out benchmarks, all methods", Experiments.Fig7.print);
    ("fig8", "PolyBench transfer", Experiments.Fig8.print);
    ("fig9", "MiBench transfer", Experiments.Fig9.print);
    ("ablations", "design-choice ablations", Experiments.Ablations.print);
    ("sweepbench",
     "corpus sweep: serial vs pool bit-identity, programs/s + \
      BENCH_sweep.json",
     Experiments.Sweepbench.print);
    ("inferbench",
     "batched NN inference: serial vs batched bit-identity + BENCH_infer.json",
     Experiments.Inferbench.print);
    ("servebench",
     "serve daemon: cold vs warm throughput, crash recovery + BENCH_serve.json",
     Experiments.Servebench.print);
    ("verifybench",
     "bytecode VM vs tree walker: steps/sec, verified-sweep overhead + \
      BENCH_verify.json",
     Experiments.Verifybench.print);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the toolchain itself                     *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let dot = Experiments.Fig1.dot_kernel in
  let parse_test =
    Test.make ~name:"parse+lower dot kernel"
      (Staged.stage (fun () ->
           ignore
             (Ir_lower.lower_program
                (Minic.Parser.parse_string dot.Dataset.Program.p_source))))
  in
  let compile_test =
    Test.make ~name:"full pipeline (baseline)"
      (Staged.stage (fun () -> ignore (Neurovec.Pipeline.run_baseline dot)))
  in
  let vectorize_test =
    Test.make ~name:"full pipeline (VF=8, IF=4 pragma)"
      (Staged.stage (fun () ->
           ignore (Neurovec.Pipeline.run_with_pragma dot ~vf:8 ~if_:4)))
  in
  let embed_test =
    let rng = Nn.Rng.create 1 in
    let c2v = Embedding.Code2vec.create rng in
    let prog = Minic.Parser.parse_string dot.Dataset.Program.p_source in
    let ctxs =
      Embedding.Ast_path.contexts_of_stmt
        (Neurovec.Extractor.embedding_stmt prog)
    in
    let ids = Embedding.Code2vec.encode c2v ctxs in
    Test.make ~name:"code2vec forward"
      (Staged.stage (fun () -> ignore (Embedding.Code2vec.forward_ids c2v ids)))
  in
  let frontend_cold_test =
    Test.make ~name:"front end: cold (parse+sema)"
      (Staged.stage (fun () ->
           Neurovec.Frontend.clear ();
           ignore (Neurovec.Frontend.checked dot)))
  in
  let frontend_warm_test =
    Test.make ~name:"front end: cached artifact"
      (Staged.stage (fun () -> ignore (Neurovec.Frontend.checked dot)))
  in
  let interp_test =
    let m =
      Ir_lower.lower_program
        (Minic.Parser.parse_string dot.Dataset.Program.p_source)
    in
    let fn = List.hd m.Ir.m_funcs in
    Test.make ~name:"interpreter: dot kernel"
      (Staged.stage (fun () ->
           let st = Ir_interp.init_state m in
           ignore (Ir_interp.run_func st fn ())))
  in
  let tests =
    Test.make_grouped ~name:"neurovectorizer"
      [ parse_test; compile_test; vectorize_test; frontend_cold_test;
        frontend_warm_test; embed_test; interp_test ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n=== Microbenchmarks (ns per run) ===\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-48s %14.0f ns\n" name est)
    (List.sort compare !rows)

(* consume [--jobs N] / [--jobs=N] / [--deadline S] and return the
   remaining arguments *)
let rec parse_jobs = function
  | [] -> []
  | "--jobs" :: n :: rest | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n -> Neurovec.Parpool.set_jobs n
      | None -> Printf.eprintf "bench: ignoring --jobs %s (not a number)\n%!" n);
      parse_jobs rest
  | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      (match
         int_of_string_opt (String.sub arg 7 (String.length arg - 7))
       with
      | Some n -> Neurovec.Parpool.set_jobs n
      | None -> Printf.eprintf "bench: ignoring %s (not a number)\n%!" arg);
      parse_jobs rest
  | "--deadline" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s -> Neurovec.Supervisor.set_deadline s
      | None ->
          Printf.eprintf "bench: ignoring --deadline %s (not a number)\n%!" s);
      parse_jobs rest
  | arg :: rest -> arg :: parse_jobs rest

let () =
  let args = parse_jobs (Array.to_list Sys.argv |> List.tl) in
  Neurovec.Parpool.warn_oversubscribed ~prog:"bench";
  let selected =
    match args with
    | [] -> List.map (fun (id, _, _) -> id) experiments @ [ "micro" ]
    | _ -> args
  in
  Printf.printf "NeuroVectorizer benchmark harness (scale %.2f, jobs %d)\n"
    Experiments.Common.scale
    (Neurovec.Parpool.jobs ());
  List.iter
    (fun id ->
      if id = "micro" then micro ()
      else
        match List.find_opt (fun (i, _, _) -> i = id) experiments with
        | Some (_, _, f) ->
            (* scope the pipeline scoreboard (per-phase wall time, cache hit
               rates) to this experiment *)
            Neurovec.Stats.reset ();
            let t0 = Sys.time () in
            f ();
            Printf.printf "[%s done in %.1fs cpu]\n%!" id (Sys.time () -. t0);
            Experiments.Common.pipeline_stats ()
        | None ->
            Printf.printf "unknown experiment %s; available: %s micro\n" id
              (String.concat " " (List.map (fun (i, _, _) -> i) experiments)))
    selected
