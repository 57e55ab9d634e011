(* Tests for the machine model: the timing bounds, cache behaviour,
   register pressure, and the compile-time model. These pin down the
   qualitative physics the RL agent learns to exploit. *)

let tgt = Machine.Target.skylake_avx2

let compile ?(vf = 1) ?(if_ = 1) src =
  let p = Dataset.Program.make ~family:"test" "t" src in
  let r =
    if vf = 1 && if_ = 1 then Neurovec.Pipeline.run_with_pragma p ~vf:1 ~if_:1
    else Neurovec.Pipeline.run_with_pragma p ~vf ~if_
  in
  r

let cycles ?vf ?if_ src = (compile ?vf ?if_ src).Neurovec.Pipeline.exec_cycles

let dot_src =
  "int vec[512]; int kernel() { int s = 0; int i;\n\
   for (i = 0; i < 512; i++) s += vec[i] * vec[i]; return s; }"

let fdot_src =
  "float vec[512]; int kernel() { float s = 0; int i;\n\
   for (i = 0; i < 512; i++) s += vec[i] * vec[i]; return (int) s; }"

(* ------------------------------------------------------------------ *)
(* Qualitative physics                                                  *)
(* ------------------------------------------------------------------ *)

let test_vectorization_speeds_up () =
  Alcotest.(check bool) "vf8 beats scalar" true
    (cycles ~vf:8 dot_src < cycles dot_src)

let test_over_vectorization_collapses () =
  (* (64, 16) spills registers and must be much slower than the sweet spot *)
  let sweet = cycles ~vf:16 ~if_:2 dot_src in
  let extreme = cycles ~vf:64 ~if_:16 dot_src in
  Alcotest.(check bool) "spill cliff" true (extreme > 2.0 *. sweet)

let test_interleave_hides_float_latency () =
  (* the scalar float reduction is latency-bound: interleaving at the same
     VF must help much more than it does for the int reduction *)
  let gain src = cycles ~vf:4 ~if_:1 src /. cycles ~vf:4 ~if_:4 src in
  Alcotest.(check bool)
    (Printf.sprintf "float gain %.2f > int gain %.2f" (gain fdot_src)
       (gain dot_src))
    true
    (gain fdot_src > gain dot_src)

let test_scalar_float_latency_bound () =
  (* fadd latency 4 makes the scalar float chain slower than the int one *)
  Alcotest.(check bool) "float chain slower" true
    (cycles fdot_src > 1.5 *. cycles dot_src)

let test_gather_cost () =
  let unit_src =
    "int a[256]; int b[256]; int kernel() { int i;\n\
     for (i = 0; i < 256; i++) a[i] = b[i]; return a[0]; }"
  in
  let gather_src =
    "int a[256]; int b[4096]; int kernel() { int i;\n\
     for (i = 0; i < 256; i++) a[i] = b[16*i]; return a[0]; }"
  in
  Alcotest.(check bool) "vectorized gather costs more than unit stride" true
    (cycles ~vf:8 gather_src > cycles ~vf:8 unit_src)

let test_cache_levels_matter () =
  (* same loop shape; footprints resident in L1 vs falling out of L2 *)
  let src n =
    Printf.sprintf
      "int a[%d]; int kernel() { int s = 0; int i;\n\
       for (i = 0; i < %d; i++) s += a[i]; return s; }"
      n n
  in
  (* at VF=8 the sweep is bandwidth-bound, so the memory level shows; the
     scalar loop is overhead-bound at every level (a real effect too) *)
  let per_iter n = cycles ~vf:8 (src n) /. float_of_int n in
  Alcotest.(check bool) "DRAM-resident sweep costs more per element" true
    (per_iter 1_000_000 > per_iter 4096)

let test_branchy_loop_pays_mispredicts () =
  let plain =
    "int a[512]; int b[512]; int kernel() { int i;\n\
     for (i = 0; i < 512; i++) a[i] = b[i]; return a[0]; }"
  in
  let branchy =
    "int a[512]; int b[512]; int kernel() { int i;\n\
     for (i = 0; i < 512; i++) { if (b[i] > 128) a[i] = b[i]; } return a[0]; }"
  in
  Alcotest.(check bool) "branch cost visible" true
    (cycles branchy > cycles plain)

let test_if_conversion_removes_branch_cost () =
  (* vectorizing the branchy loop if-converts it: the relative gain should
     exceed the plain loop's gain at the same VF *)
  let branchy =
    "int a[512]; int b[512]; int kernel() { int i;\n\
     for (i = 0; i < 512; i++) { if (b[i] > 128) a[i] = b[i]; } return a[0]; }"
  in
  let g = cycles branchy /. cycles ~vf:8 branchy in
  Alcotest.(check bool) (Printf.sprintf "if-conversion pays (%.2fx)" g) true
    (g > 1.5)

let test_timing_deterministic () =
  Alcotest.(check (float 0.0)) "same cycles" (cycles ~vf:8 dot_src)
    (cycles ~vf:8 dot_src)

(* ------------------------------------------------------------------ *)
(* Targets                                                              *)
(* ------------------------------------------------------------------ *)

let cycles_on target src ~vf ~if_ =
  let p = Dataset.Program.make ~family:"test" "t" src in
  let options = { Neurovec.Pipeline.default_options with target } in
  (Neurovec.Pipeline.run_with_pragma ~options p ~vf ~if_)
    .Neurovec.Pipeline.exec_cycles

let test_narrow_target_prefers_narrow_vf () =
  (* on the 128-bit SSE target, VF=32 loses more of its AVX2 advantage *)
  let rel target =
    cycles_on target dot_src ~vf:32 ~if_:1 /. cycles_on target dot_src ~vf:4 ~if_:1
  in
  Alcotest.(check bool) "sse pays more for wide vf" true
    (rel Machine.Target.sse4 > rel Machine.Target.skylake_avx2)

let test_avx512_likes_wider () =
  let rel target =
    cycles_on target dot_src ~vf:64 ~if_:2 /. cycles_on target dot_src ~vf:8 ~if_:2
  in
  Alcotest.(check bool) "avx512 pays less for vf 64" true
    (rel Machine.Target.avx512 < rel Machine.Target.skylake_avx2)

(* ------------------------------------------------------------------ *)
(* Compile-time model                                                   *)
(* ------------------------------------------------------------------ *)

let test_compile_time_monotone_in_width () =
  let p = Dataset.Program.make ~family:"test" "t" dot_src in
  let c ~vf ~if_ =
    (Neurovec.Pipeline.run_with_pragma p ~vf ~if_)
      .Neurovec.Pipeline.compile_seconds
  in
  Alcotest.(check bool) "if grows" true (c ~vf:4 ~if_:8 > c ~vf:4 ~if_:1);
  Alcotest.(check bool) "vf grows" true (c ~vf:64 ~if_:1 > c ~vf:4 ~if_:1)

let test_compile_weight_of_vectors () =
  let m = Ir_lower.lower_program (Minic.Parser.parse_string dot_src) in
  let before = Machine.Compile.instr_count m in
  let fn = List.hd m.Ir.m_funcs in
  List.iter
    (fun info ->
      ignore
        (Vectorizer.Transform.vectorize_in_func fn info
           { Vectorizer.Transform.vf = 64; if_ = 8 }))
    (Analysis.Loopinfo.innermost_infos fn);
  let after = Machine.Compile.instr_count m in
  Alcotest.(check bool)
    (Printf.sprintf "weighted count grows a lot (%d -> %d)" before after)
    true
    (after > 10 * before)

(* ------------------------------------------------------------------ *)
(* Structural probes                                                    *)
(* ------------------------------------------------------------------ *)

let test_carried_regs () =
  let m = Ir_lower.lower_program (Minic.Parser.parse_string dot_src) in
  let fn = List.hd m.Ir.m_funcs in
  let l = List.hd (Ir.innermost_loops fn) in
  let summary =
    Machine.Timing.summarize (Machine.Timing.make_ctx tgt m fn) ~fp:0
      (Ir.all_instrs l.Ir.l_body)
  in
  (* exactly the accumulator s is carried *)
  Alcotest.(check int) "one carried scalar" 1
    (List.length summary.Machine.Timing.carried)

let test_chunks () =
  Alcotest.(check int) "8 x i32 = 1 chunk" 1
    (Machine.Timing.chunks tgt (Ir.Vec (8, Ir.I32)));
  Alcotest.(check int) "64 x i32 = 8 chunks" 8
    (Machine.Timing.chunks tgt (Ir.Vec (64, Ir.I32)));
  Alcotest.(check int) "scalar = 1" 1
    (Machine.Timing.chunks tgt (Ir.Scalar Ir.F64))

let suite =
  [
    ( "machine.physics",
      [
        Alcotest.test_case "vectorization speeds up" `Quick
          test_vectorization_speeds_up;
        Alcotest.test_case "over-vectorization collapses" `Quick
          test_over_vectorization_collapses;
        Alcotest.test_case "interleave hides fp latency" `Quick
          test_interleave_hides_float_latency;
        Alcotest.test_case "scalar fp latency-bound" `Quick
          test_scalar_float_latency_bound;
        Alcotest.test_case "gathers cost" `Quick test_gather_cost;
        Alcotest.test_case "cache levels" `Quick test_cache_levels_matter;
        Alcotest.test_case "branch cost" `Quick test_branchy_loop_pays_mispredicts;
        Alcotest.test_case "if-conversion pays" `Quick
          test_if_conversion_removes_branch_cost;
        Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
      ] );
    ( "machine.targets",
      [
        Alcotest.test_case "sse4 narrower" `Quick
          test_narrow_target_prefers_narrow_vf;
        Alcotest.test_case "avx512 wider" `Quick test_avx512_likes_wider;
      ] );
    ( "machine.compile",
      [
        Alcotest.test_case "monotone in width" `Quick
          test_compile_time_monotone_in_width;
        Alcotest.test_case "vector weighting" `Quick
          test_compile_weight_of_vectors;
      ] );
    ( "machine.probes",
      [
        Alcotest.test_case "carried regs" `Quick test_carried_regs;
        Alcotest.test_case "chunks" `Quick test_chunks;
      ] );
  ]
