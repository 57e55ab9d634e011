(* Golden snapshots of the figure summaries on small, seeded corpora.

   Each test renders a canonical summary string — names, chosen (VF, IF)
   pairs, and speedups printed as %h hex floats so equality is bit-exact —
   and compares it against a committed golden.  Because every value in the
   pipeline is a pure function of program content (caches are
   content-addressed, fault injection is off for these corpora, timing is
   a deterministic cost model), these snapshots hold at any --jobs /
   NEUROVEC_JOBS setting: CI runs them with a 4-domain pool, so a
   schedule-dependent result anywhere in the reward path shows up as a
   golden mismatch.

   On an intentional change to the cost model, RNG streams, or planner,
   regenerate by running the suite: the failure message prints the new
   canonical string ready to paste. *)

let check_golden ~what (expected : string) (actual : string) : unit =
  if actual <> expected then
    Alcotest.failf
      "%s summary changed.\nExpected:\n%s\nActual (paste into test_golden.ml \
       if intended):\n%s"
      what expected actual

(* ---- Figure 2: brute force on the LLVM suite ---------------------- *)

let fig2_golden =
  "sum_i32 vf=32 if=1 speedup=0x1.00487ede0487fp+1\n\
   dot_i32 vf=32 if=1 speedup=0x1.f97dd49c34115p+0\n\
   dot_f32 vf=32 if=1 speedup=0x1.f911c27d9e1afp+0\n\
   copy_widen_short vf=32 if=16 speedup=0x1.2c54ba66e2586p+1\n\
   saxpy_f32 vf=32 if=16 speedup=0x1.8853606f2b3eep+0\n\
   predicated_store vf=32 if=1 speedup=0x1.ef06b172f6337p+0\n\
   select_minmax vf=32 if=1 speedup=0x1.e376e5eca5f73p+0\n\
   stride2_pack vf=16 if=1 speedup=0x1.81331aa1b59fap+0\n\
   gather_stride4 vf=16 if=1 speedup=0x1.96df733e75e21p+1\n\
   reverse_copy vf=32 if=8 speedup=0x1.0884210842108p+1\n\
   unknown_bound vf=16 if=1 speedup=0x1.a0590b21642c9p+0\n\
   misaligned_offset vf=32 if=2 speedup=0x1.42d82d82d82d7p+1\n\
   multidim_rowsum vf=16 if=1 speedup=0x1.5a8667bcbfc97p+0\n\
   mixed_types vf=32 if=1 speedup=0x1.28418045de286p+1\n\
   xor_reduction vf=32 if=1 speedup=0x1.17c61660150f3p+1\n\
   shift_mask vf=32 if=4 speedup=0x1.112c1668bd042p+1\n\
   step2_pairs vf=4 if=1 speedup=0x1.5d65df359b6afp+0\n\
   geomean=0x1.f25ce41258ed8p+0"

let canon_fig2 () : string =
  let rows = Experiments.Fig2.run () in
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%s vf=%d if=%d speedup=%h" r.Experiments.Fig2.name
           r.Experiments.Fig2.best_vf r.Experiments.Fig2.best_if
           r.Experiments.Fig2.best_speedup)
       rows
    @ [ Printf.sprintf "geomean=%h"
          (Experiments.Common.geomean
             (List.map (fun r -> r.Experiments.Fig2.best_speedup) rows)) ])

let test_fig2_golden () =
  check_golden ~what:"fig2" fig2_golden (canon_fig2 ())

(* ---- Figures 7 and 8: a tiny shared trained instance --------------- *)

(* explicit sizes: independent of NEUROVEC_SCALE, small enough for CI *)
let tiny =
  lazy
    (Experiments.Trained.build ~seed:5 ~corpus_size:24 ~train_steps:192
       ~n_labeled:6 ())

let fig7_golden =
  "gather_00023 random=0x1.f57c954a1e7d1p-1 polly=0x1p+0 \
   NNS=0x1.f57c954a1e7d1p-1 decision-tree=0x1.f9a3c6c1fcd1ep-1 \
   RL=0x1.58f2fba938682p+1 brute-force=0x1.58f2fba938681p+1\n\
   offset_00016 random=0x1.8da6dae529c5ap-2 polly=0x1p+0 \
   NNS=0x1.470126c3bdfc3p+0 decision-tree=0x1.3ba59a7d38aedp+0 \
   RL=0x1.87955f2363bbfp+0 brute-force=0x1.c75940ab05e11p+0\n\
   widening_00005 random=0x1.f207657ef903bp-1 polly=0x1p+0 \
   NNS=0x1.00d901b20364p+0 decision-tree=0x1.230fd99373c0ap+0 \
   RL=0x1.21f94d0a0c70fp+0 brute-force=0x1.230fd99373c0ap+0\n\
   gather_00001 random=0x1.ddfe1c56e8624p-1 polly=0x1p+0 \
   NNS=0x1.3a68636adfb08p+1 decision-tree=0x1.da7da7da7da7ep+0 \
   RL=0x1.346b46b46b46bp+1 brute-force=0x1.471c71c71c71dp+1\n\
   avg random=0x1.8882db71176d6p-1\n\
   avg polly=0x1p+0\n\
   avg NNS=0x1.533b216d90547p+0\n\
   avg decision-tree=0x1.4402310f3a71dp+0\n\
   avg RL=0x1.d4d9dc0ab06d1p+0\n\
   avg brute-force=0x1.ee8cb99fc9c5cp+0"

let canon_fig7 () : string =
  let rows, averages = Experiments.Fig7.run ~t:(Lazy.force tiny) () in
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%s %s" r.Experiments.Fig7.bench
           (String.concat " "
              (List.map
                 (fun (m, s) ->
                   Printf.sprintf "%s=%h" (Experiments.Trained.method_name m) s)
                 r.Experiments.Fig7.speedups)))
       rows
    @ List.map
        (fun (m, s) ->
          Printf.sprintf "avg %s=%h" (Experiments.Trained.method_name m) s)
        averages)

let test_fig7_golden () =
  check_golden ~what:"fig7" fig7_golden (canon_fig7 ())

let fig8_golden =
  "gemm polly=0x1.7a222bb4d2c22p+1 RL=0x1p+0 polly+RL=0x1.7a222bb4d2c22p+1\n\
   gesummv polly=0x1p+0 RL=0x1.89d15e817a263p+0 polly+RL=0x1.89d15e817a263p+0\n\
   atax polly=0x1.4a33cc4dc95d8p+1 RL=0x1.046606d4e93d1p+0 \
   polly+RL=0x1.5a28b05efa2d1p+1\n\
   bicg polly=0x1p+0 RL=0x1.8acf89cb44a8fp+0 polly+RL=0x1.8acf89cb44a8fp+0\n\
   mvt polly=0x1.4a33b05776288p+1 RL=0x1.0466069783092p+0 \
   polly+RL=0x1.5a2890be8bc99p+1\n\
   syrk polly=0x1p+0 RL=0x1.7b24777da57a7p+0 polly+RL=0x1.7b24777da57a7p+0\n\
   avg polly=0x1.a4914cc8b59b1p+0\n\
   avg RL=0x1.3d71b23ac6b94p+0\n\
   avg polly+RL=0x1.0763c0f731528p+1"

let canon_fig8 () : string =
  let rows, averages = Experiments.Fig8.run ~t:(Lazy.force tiny) () in
  String.concat "\n"
    (List.map
       (fun (name, ss) ->
         Printf.sprintf "%s %s" name
           (String.concat " "
              (List.map
                 (fun (m, s) ->
                   Printf.sprintf "%s=%h" (Experiments.Trained.method_name m) s)
                 ss)))
       rows
    @ List.map
        (fun (m, s) ->
          Printf.sprintf "avg %s=%h" (Experiments.Trained.method_name m) s)
        averages)

let test_fig8_golden () =
  check_golden ~what:"fig8" fig8_golden (canon_fig8 ())

(* ---- The cycle model: Timing.cycles bits over a fixed corpus ------- *)

(* every module the planned path builds for the three suites and a
   seeded Loopgen draw, under the baseline and the 35 actions, with Polly
   off and on: the digest of each module's cycle count as IEEE bits, so
   a rewrite of the cycle model that moves any count by one ulp shows *)
let cycles_golden =
  "modules=19944 digest=3c826ad18fe0187fdd2f58ce13f63f83"

let cycles_programs () : Dataset.Program.t array =
  Array.concat
    [ Dataset.Llvm_suite.programs; Dataset.Polybench.programs;
      Dataset.Mibench.programs; Dataset.Loopgen.generate ~seed:1 48;
      Dataset.Loopgen.generate ~seed:11 200 ]

(* the baseline and the 35 actions *)
let all_plans : Neurovec.Pipeline.plan list =
  Neurovec.Pipeline.Baseline
  :: List.map
       (fun a -> Neurovec.Pipeline.All (Rl.Spaces.vf_of a, Rl.Spaces.if_of a))
       Rl.Spaces.all_actions

let canon_cycles () : string =
  let programs = cycles_programs () and plans = all_plans in
  let rows =
    List.concat_map
      (fun polly ->
        let options = { Neurovec.Pipeline.default_options with polly } in
        Array.to_list
          (Neurovec.Parpool.map
             (fun p ->
               let subject = Neurovec.Pipeline.subject ~options p in
               List.map
                 (fun plan ->
                   let pt = Neurovec.Pipeline.eval_planned subject ~plan in
                   let m = Lazy.force pt.Neurovec.Pipeline.pt_modul in
                   let fn =
                     Neurovec.Pipeline.find_kernel m p.Dataset.Program.p_kernel
                   in
                   Printf.sprintf "%Lx"
                     (Int64.bits_of_float
                        (Machine.Timing.cycles
                           options.Neurovec.Pipeline.target m fn)))
                 plans)
             programs))
      [ false; true ]
  in
  let rows = List.concat rows in
  Printf.sprintf "modules=%d digest=%s" (List.length rows)
    (Digest.to_hex (Digest.string (String.concat "\n" rows)))

let test_cycles_golden () =
  check_golden ~what:"cycle-bits" cycles_golden (canon_cycles ())

(* ---- LICM: the modules it leaves, before and after vectorizing ------ *)

(* Post-vectorization LICM moves nothing on the cycle corpus, so the
   cycle golden cannot see it.  It does move code in two cases: the
   remainder of a loop with no static trip count gets a positive trip
   hint, and if-conversion leaves invariant clones at block level.  Three
   probe kernels hit both cases under the baseline and the 35 actions,
   each run through the planned path's steps (prevec, copy, apply the
   plan, LICM).  The digest covers each module's body, register count and
   used register types, its kernel's cycle bits and the instructions LICM
   moved; it also covers the prevec module (the mid-end's LICM/CSE/LICM)
   of every cycle-corpus program, Polly off and on. *)
let licm_golden =
  "modules=662 moved=1247 digest=d253c17119a8be4726c8289557fb34a5"

let licm_probes : Dataset.Program.t list =
  let k name body =
    Dataset.Program.make ~family:"licm-probe" name
      ("int a[512]; int b[512];\n" ^ body)
  in
  [ k "licm_unknown_trip"
      "int c[4];\n\
       int kernel() {\n\
      \  int i; int n; int k;\n\
      \  n = c[0]; k = 7;\n\
      \  for (i = 0; i < n; i++) a[i] = b[i] * k + (k * 3);\n\
      \  return a[0];\n\
       }\n";
    k "licm_ifconv_consts"
      "int kernel() {\n\
      \  int i; int t;\n\
      \  for (i = 0; i < 512; i++) {\n\
      \    if (b[i] > 0) t = 5; else t = 9;\n\
      \    a[i] = t;\n\
      \  }\n\
      \  return a[0];\n\
       }\n";
    k "licm_ifconv_invariant"
      "int kernel() {\n\
      \  int i; int t; int k;\n\
      \  k = 3;\n\
      \  for (i = 0; i < 512; i++) {\n\
      \    if (b[i] > 0) t = k * 5; else t = k + 9;\n\
      \    a[i] = t;\n\
      \  }\n\
      \  return a[0];\n\
       }\n" ]

(* digest of a function's body, register count and used register types *)
let func_digest (fn : Ir.func) : string =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (fn.Ir.fn_body, fn.Ir.fn_nregs, Array.sub fn.Ir.fn_regty 0 fn.Ir.fn_nregs)
          [ Marshal.No_sharing ]))

let canon_licm () : string * int =
  let options = Neurovec.Pipeline.default_options in
  let moved = ref 0 in
  let probe_rows =
    List.concat_map
      (fun p ->
        let pv = Neurovec.Frontend.prevec p in
        List.map
          (fun plan ->
            let m = Ir.copy_modul pv.Neurovec.Frontend.pv_modul in
            let preps = pv.Neurovec.Frontend.pv_preps in
            let report =
              Vectorizer.Planner.report_prepared
                ~request:(Neurovec.Pipeline.request plan) preps
            in
            Vectorizer.Planner.apply_prepared m preps report;
            let n = Vectorizer.Licm.run_modul m in
            moved := !moved + n;
            let fn = Neurovec.Pipeline.find_kernel m p.Dataset.Program.p_kernel in
            Printf.sprintf "%s moved=%d cycles=%Lx %s" p.Dataset.Program.p_name n
              (Int64.bits_of_float
                 (Machine.Timing.cycles options.Neurovec.Pipeline.target m fn))
              (String.concat " " (List.map func_digest m.Ir.m_funcs)))
          all_plans)
      licm_probes
  in
  let prevec_rows =
    List.concat_map
      (fun polly ->
        List.map
          (fun p ->
            let pv = Neurovec.Frontend.prevec ~polly p in
            String.concat " "
              (List.map func_digest pv.Neurovec.Frontend.pv_modul.Ir.m_funcs))
          (Array.to_list (cycles_programs ())))
      [ false; true ]
  in
  let rows = probe_rows @ prevec_rows in
  ( Printf.sprintf "modules=%d moved=%d digest=%s" (List.length rows) !moved
      (Digest.to_hex (Digest.string (String.concat "\n" rows))),
    !moved )

let test_licm_golden () =
  let canon, moved = canon_licm () in
  Alcotest.(check bool) "post-vectorization LICM moves code on the probes"
    true (moved > 0);
  check_golden ~what:"licm" licm_golden canon

(* ---- The transform: the modules the planner leaves, before LICM ----- *)

(* The cycle golden pins only cycle bits, which a widening that renumbers
   or reorders registers can leave unchanged.  This one digests every
   module [Planner.apply_prepared] builds for the cycle corpus under the
   baseline and the 35 actions, Polly off and on, before the
   post-vectorization LICM: each function's body, register count and
   used register types. *)
let transform_golden =
  "modules=19944 digest=96fcb88aa67a5e14a890a5e89d779d03"

let canon_transform () : string =
  let rows =
    List.concat_map
      (fun polly ->
        Array.to_list
          (Neurovec.Parpool.map
             (fun p ->
               let pv = Neurovec.Frontend.prevec ~polly p in
               let preps = pv.Neurovec.Frontend.pv_preps in
               List.map
                 (fun plan ->
                   let m = Ir.copy_modul pv.Neurovec.Frontend.pv_modul in
                   let report =
                     Vectorizer.Planner.report_prepared
                       ~request:(Neurovec.Pipeline.request plan) preps
                   in
                   Vectorizer.Planner.apply_prepared m preps report;
                   String.concat " " (List.map func_digest m.Ir.m_funcs))
                 all_plans)
             (cycles_programs ())))
      [ false; true ]
  in
  let rows = List.concat rows in
  Printf.sprintf "modules=%d digest=%s" (List.length rows)
    (Digest.to_hex (Digest.string (String.concat "\n" rows)))

let test_transform_golden () =
  check_golden ~what:"transform" transform_golden (canon_transform ())

let test_licm_nested_store () =
  (* [C[0]] is stored in the [k] body and again in a nested loop whose
     trip count is unknown.  Promotion rewrites only the body's own
     blocks, so it must leave [C[0]] in memory: promoting it would leave
     the nested store behind the register, and the base would qualify
     again without end *)
  let src =
    "int b[64]; int C[4]; int nn[2];\n\
     int kernel() {\n\
    \  int k; int j; int n;\n\
    \  n = (nn[0] & 7) + 1;\n\
    \  for (k = 0; k < 16; k++) {\n\
    \    C[0] = C[0] + 1;\n\
    \    for (j = 0; j < n; j++) C[0] = C[0] + b[j];\n\
    \  }\n\
    \  return C[0];\n\
     }\n"
  in
  let lower () = Ir_lower.lower_program (Minic.Parser.parse_string src) in
  let run m =
    let st = Ir_interp.init_state m in
    let fn = Neurovec.Pipeline.find_kernel m "kernel" in
    let r = Ir_interp.run_func st fn () in
    (r, Ir_interp.state_fingerprint st r)
  in
  let m = lower () in
  ignore (Vectorizer.Licm.run_modul m);
  Alcotest.(check bool) "LICM preserves the result" true (run m = run (lower ()))

(* ---- Training: the pinned PPO and framework runs ------------------ *)

(* every pin of {!Train_pins}, trained at the ambient pool size: the
   rollout forward shards across the pool, and the framework recipe also
   measures its rewards on it *)
let test_train_ppo ~use_attention space () =
  let agent, hist =
    Train_pins.ppo_run ~use_attention ~rollout_jobs:(Neurovec.Parpool.jobs ())
      ~rollout_map:(fun f xs -> Neurovec.Parpool.map f xs)
      space
  in
  Train_pins.check
    ~what:(Rl.Spaces.kind_to_string space)
    ~pin:(Train_pins.ppo_pin ~use_attention space)
    (Train_pins.digest agent hist)

let test_train_framework ~options ~pin () =
  let agent, hist = Train_pins.framework_run ~options in
  Train_pins.check ~what:"framework" ~pin (Train_pins.digest agent hist)

let suite =
  [
    ( "golden.summaries",
      [
        Alcotest.test_case "fig2 (LLVM suite brute force)" `Quick
          test_fig2_golden;
        Alcotest.test_case "fig7 (tiny trained instance)" `Slow
          test_fig7_golden;
        Alcotest.test_case "fig8 (tiny trained instance)" `Slow
          test_fig8_golden;
      ] );
    ( "golden.train",
      [
        Alcotest.test_case "ppo discrete, attention" `Quick
          (test_train_ppo ~use_attention:true Rl.Spaces.Discrete);
        Alcotest.test_case "ppo continuous1, attention" `Quick
          (test_train_ppo ~use_attention:true Rl.Spaces.Continuous1);
        Alcotest.test_case "ppo continuous2, attention" `Quick
          (test_train_ppo ~use_attention:true Rl.Spaces.Continuous2);
        Alcotest.test_case "ppo discrete, mean pooling" `Quick
          (test_train_ppo ~use_attention:false Rl.Spaces.Discrete);
        Alcotest.test_case "framework train, faults" `Quick
          (test_train_framework ~options:Train_pins.fault_options
             ~pin:Train_pins.framework_faults_pin);
        Alcotest.test_case "framework train, no faults" `Quick
          (test_train_framework
             ~options:Neurovec.Pipeline.default_options
             ~pin:Train_pins.framework_clean_pin);
      ] );
    ( "golden.cycles",
      [
        Alcotest.test_case "Timing.cycles bits (suites + Loopgen, 36 plans, \
                            Polly off/on)" `Quick test_cycles_golden;
      ] );
    ( "golden.transform",
      [
        Alcotest.test_case "Planner.apply_prepared output (cycle corpus, \
                            36 plans, Polly off/on)" `Quick
          test_transform_golden;
      ] );
    ( "vectorizer.licm",
      [
        Alcotest.test_case "LICM output (probes x 36 plans, prevec corpus)"
          `Quick test_licm_golden;
        Alcotest.test_case "no promotion of a base stored in a nested loop"
          `Quick test_licm_nested_store;
      ] );
  ]
