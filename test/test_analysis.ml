(* Tests for the analysis layer: scalar evolution, access collection,
   reduction recognition, dependence distances. *)

let lower ?bindings src = Ir_lower.lower_program ?bindings (Minic.Parser.parse_string src)

let first_loop m =
  let fn = List.hd m.Ir.m_funcs in
  match Ir.innermost_loops fn with
  | l :: _ -> (fn, l)
  | [] -> Alcotest.fail "no loop"

(* ------------------------------------------------------------------ *)
(* Scalar evolution                                                     *)
(* ------------------------------------------------------------------ *)

let test_scev_affine_arithmetic () =
  let open Analysis.Scev in
  let a = sym_aff 1 and b = sym_aff 2 in
  (* 3*(r1 + 4) - r2 = 3*r1 - r2 + 12 *)
  let e = sub_sv (mul_sv (const_aff 3) (add_sv a (const_aff 4))) b in
  Alcotest.(check int) "coeff r1" 3 (coeff_of 1 e);
  Alcotest.(check int) "coeff r2" (-1) (coeff_of 2 e);
  (match e with
  | Affine x -> Alcotest.(check int) "const" 12 x.const
  | Unknown -> Alcotest.fail "expected affine")

let test_scev_nonlinear_unknown () =
  let open Analysis.Scev in
  let a = sym_aff 1 and b = sym_aff 2 in
  Alcotest.(check bool) "r1*r2 unknown" true (mul_sv a b = Unknown);
  Alcotest.(check bool) "const*affine known" true
    (mul_sv (const_aff 5) a <> Unknown)

let test_scev_shl_is_mul () =
  let open Analysis.Scev in
  let a = sym_aff 1 in
  Alcotest.(check int) "r1 << 3 has coeff 8" 8 (coeff_of 1 (shl_sv a (const_aff 3)))

let test_scev_const_delta () =
  let open Analysis.Scev in
  let a = add_sv (sym_aff 1) (const_aff 5) in
  let b = add_sv (sym_aff 1) (const_aff 9) in
  Alcotest.(check (option int)) "delta 4" (Some 4) (const_delta a b);
  let c = add_sv (mul_sv (const_aff 2) (sym_aff 1)) (const_aff 9) in
  Alcotest.(check (option int)) "coeff mismatch" None (const_delta a c)

let test_scev_index_of_loop () =
  (* a[2*i + 3]: coefficient 2, constant 3 *)
  let m = lower "int a[512]; void f() { int i; for (i=0;i<200;i++) a[2*i+3] = i; }" in
  let _, l = first_loop m in
  let env =
    Analysis.Scev.make_env ~induction_vars:[ l.Ir.l_var ] l.Ir.l_body
  in
  let idx = ref None in
  List.iter
    (fun i ->
      (match i with
      | Ir.Store (_, mr, _) -> idx := Some (Analysis.Scev.eval_value env mr.Ir.index)
      | _ -> ());
      Analysis.Scev.step env i)
    (Ir.all_instrs l.Ir.l_body);
  match !idx with
  | Some sv ->
      Alcotest.(check int) "coeff of i" 2 (Analysis.Scev.coeff_of l.Ir.l_var sv)
  | None -> Alcotest.fail "no store found"

let test_scev_loop_carried_unknown () =
  (* an index fed by a loop-carried scalar is not affine *)
  let m =
    lower
      "int a[512]; void f() { int idx = 0; int i;\n\
       for (i=0;i<100;i++) { a[idx] = i; idx = idx + a[i]; } }"
  in
  let _, l = first_loop m in
  let acc = Analysis.Access.collect ~induction_vars:[ l.Ir.l_var ] l.Ir.l_body in
  Alcotest.(check bool) "some access unknown" true
    (List.exists
       (fun a -> a.Analysis.Access.acc_index = Analysis.Scev.Unknown)
       acc.Analysis.Access.accesses)

(* ------------------------------------------------------------------ *)
(* Access collection                                                    *)
(* ------------------------------------------------------------------ *)

let test_access_order_and_kind () =
  let m = lower "int a[64]; int b[64]; void f() { int i; for (i=0;i<64;i++) a[i] = b[i]; }" in
  let _, l = first_loop m in
  let acc = Analysis.Access.collect ~induction_vars:[ l.Ir.l_var ] l.Ir.l_body in
  match acc.Analysis.Access.accesses with
  | [ ld; st ] ->
      Alcotest.(check string) "load base" "b" ld.Analysis.Access.acc_base;
      Alcotest.(check bool) "load" false ld.Analysis.Access.acc_is_store;
      Alcotest.(check string) "store base" "a" st.Analysis.Access.acc_base;
      Alcotest.(check bool) "store" true st.Analysis.Access.acc_is_store
  | l -> Alcotest.failf "expected 2 accesses, got %d" (List.length l)

let test_access_predicated_flag () =
  let m =
    lower
      "int a[64]; int b[64]; void f() { int i;\n\
       for (i=0;i<64;i++) { if (b[i] > 3) a[i] = 1; } }"
  in
  let _, l = first_loop m in
  let acc = Analysis.Access.collect ~induction_vars:[ l.Ir.l_var ] l.Ir.l_body in
  let store =
    List.find (fun a -> a.Analysis.Access.acc_is_store) acc.Analysis.Access.accesses
  in
  Alcotest.(check bool) "store predicated" true
    store.Analysis.Access.acc_predicated;
  Alcotest.(check int) "if depth" 1 acc.Analysis.Access.if_depth

let test_access_stride_includes_step () =
  let m = lower "int a[256]; void f() { int i; for (i=0;i<256;i+=4) a[i] = i; }" in
  let _, l = first_loop m in
  let acc = Analysis.Access.collect ~induction_vars:[ l.Ir.l_var ] l.Ir.l_body in
  let st = List.hd acc.Analysis.Access.accesses in
  Alcotest.(check (option int)) "stride 4 per iteration" (Some 4)
    (Analysis.Access.iter_stride l st)

(* ------------------------------------------------------------------ *)
(* Reductions                                                           *)
(* ------------------------------------------------------------------ *)

let reductions_of src =
  let m = lower src in
  let _, l = first_loop m in
  Analysis.Reduction.analyze l

let test_reduction_kinds () =
  let cases =
    [ ("s += a[i];", Analysis.Reduction.RedAdd);
      ("s *= (a[i] & 3) + 1;", Analysis.Reduction.RedMul);
      ("s ^= a[i];", Analysis.Reduction.RedXor);
      ("s |= a[i];", Analysis.Reduction.RedOr);
      ("s &= a[i];", Analysis.Reduction.RedAnd) ]
  in
  List.iter
    (fun (update, kind) ->
      let src =
        Printf.sprintf
          "int a[64]; int f() { int s = 1; int i; for (i=0;i<64;i++) { %s } return s; }"
          update
      in
      match reductions_of src with
      | [ r ], [] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s recognised" update)
            true
            (r.Analysis.Reduction.red_kind = kind)
      | _ -> Alcotest.failf "%s not recognised as sole reduction" update)
    cases

let test_reduction_float () =
  match
    reductions_of
      "float a[64]; float f() { float s = 0; int i; for (i=0;i<64;i++) s += a[i]; return s; }"
  with
  | [ r ], [] -> Alcotest.(check bool) "float" true r.Analysis.Reduction.red_float
  | _ -> Alcotest.fail "float reduction not recognised"

let test_reduction_scan_blocked () =
  (* the accumulator is also stored each iteration: not a plain reduction *)
  match
    reductions_of
      "int a[64]; int b[64]; int f() { int s = 0; int i;\n\
       for (i=0;i<64;i++) { s += a[i]; b[i] = s; } return s; }"
  with
  | [], [ _ ] -> ()
  | reds, blocked ->
      Alcotest.failf "expected blocked scan, got %d reductions %d blocked"
        (List.length reds) (List.length blocked)

let test_reduction_two_updates_blocked () =
  match
    reductions_of
      "int a[64]; int f() { int s = 0; int i;\n\
       for (i=0;i<64;i++) { s += a[i]; s ^= a[i]; } return s; }"
  with
  | [], [ _ ] -> ()
  | _ -> Alcotest.fail "double update must not be a reduction"

let test_reduction_identity_values () =
  let open Analysis.Reduction in
  Alcotest.(check bool) "add int" true (identity_value RedAdd false = Ir.IConst 0L);
  Alcotest.(check bool) "mul int" true (identity_value RedMul false = Ir.IConst 1L);
  Alcotest.(check bool) "and" true (identity_value RedAnd false = Ir.IConst (-1L));
  Alcotest.(check bool) "add float" true (identity_value RedAdd true = Ir.FConst 0.0)

(* A 20,000-instruction straight-line body defining 20,000 registers:
   the scan is linear in the body, not in body x defined registers.  The
   chain reads r0 before the last instruction writes it, so r0 is
   carried and, fed by a [mov] of an add that does not read it, blocked. *)
let test_reduction_linear () =
  let n = 20_000 in
  let ty = Ir.Scalar Ir.I64 in
  let chain =
    List.init n (fun k -> Ir.Def (k + 1, Ir.IBin (Ir.Add, ty, Ir.Reg k, Ir.IConst 1L)))
  in
  let l =
    { Ir.l_id = 0; l_var = n + 1; l_init = ([], Ir.IConst 0L);
      l_bound = ([], Ir.IConst 4L); l_cmp = Ir.CLt; l_step = 1; l_pragma = None;
      l_site = None; l_trip_hint = None;
      l_body = [ Ir.Block (chain @ [ Ir.Def (0, Ir.Mov (ty, Ir.Reg n)) ]) ] }
  in
  let t0 = Unix.gettimeofday () in
  let reds, blocked = Analysis.Reduction.analyze l in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "no reductions" 0 (List.length reds);
  Alcotest.(check (list int)) "r0 carried, blocked" [ 0 ] blocked;
  Alcotest.(check bool) (Printf.sprintf "%.3f s, under 1 s" dt) true (dt < 1.0)

(* ------------------------------------------------------------------ *)
(* Dependences                                                          *)
(* ------------------------------------------------------------------ *)

let verdict_of src =
  let m = lower src in
  let _, l = first_loop m in
  let acc = Analysis.Access.collect ~induction_vars:[ l.Ir.l_var ] l.Ir.l_body in
  Analysis.Depend.analyze l acc.Analysis.Access.accesses

let test_dep_flow_distance () =
  let v =
    verdict_of "int a[64]; void f() { int i; for (i=3;i<64;i++) a[i] = a[i-3]; }"
  in
  Alcotest.(check int) "max safe vf = 3" 3 v.Analysis.Depend.max_safe_vf;
  match v.Analysis.Depend.dependences with
  | [ d ] ->
      Alcotest.(check int) "distance" 3 d.Analysis.Depend.dep_distance;
      Alcotest.(check bool) "flow" true d.Analysis.Depend.dep_store_first
  | _ -> Alcotest.fail "expected one dependence"

let test_dep_anti_unconstrained () =
  let v =
    verdict_of "int a[65]; void f() { int i; for (i=0;i<64;i++) a[i] = a[i+1]; }"
  in
  Alcotest.(check bool) "unbounded" true
    (v.Analysis.Depend.max_safe_vf >= Analysis.Depend.unbounded)

let test_dep_disjoint_parity () =
  (* a[2i] vs a[2i+1]: same coefficients, odd delta -> never collide *)
  let v =
    verdict_of
      "int a[130]; void f() { int i; for (i=0;i<64;i++) a[2*i] = a[2*i+1]; }"
  in
  Alcotest.(check bool) "no constraint" true
    (v.Analysis.Depend.max_safe_vf >= Analysis.Depend.unbounded);
  Alcotest.(check bool) "no unknown" true (v.Analysis.Depend.unknown_pair = None)

let test_dep_different_coeffs_unknown () =
  let v =
    verdict_of
      "int a[256]; void f() { int i; for (i=1;i<64;i++) a[i] = a[2*i]; }"
  in
  Alcotest.(check bool) "unknown pair" true
    (v.Analysis.Depend.unknown_pair <> None);
  Alcotest.(check int) "scalar only" 1 v.Analysis.Depend.max_safe_vf

let test_dep_loads_only_no_constraint () =
  let v =
    verdict_of
      "int a[64]; int b[64]; void f() { int i; for (i=1;i<63;i++) b[i] = a[i-1] + a[i+1]; }"
  in
  Alcotest.(check bool) "loads never conflict" true
    (v.Analysis.Depend.max_safe_vf >= Analysis.Depend.unbounded)

let test_dep_output_dependence () =
  (* two stores, distance 1: constrains like a flow dependence *)
  let v =
    verdict_of
      "int a[130]; void f() { int i; for (i=0;i<64;i++) { a[i] = 1; a[i+1] = 2; } }"
  in
  Alcotest.(check int) "vf limited to 1" 1 v.Analysis.Depend.max_safe_vf

(* ------------------------------------------------------------------ *)
(* Trip counts                                                          *)
(* ------------------------------------------------------------------ *)

let trip src =
  let m = lower src in
  let _, l = first_loop m in
  Analysis.Loopinfo.static_trip_count l

let test_trip_counts () =
  Alcotest.(check (option int)) "lt" (Some 100)
    (trip "int a[100]; void f() { int i; for (i=0;i<100;i++) a[i]=1; }");
  Alcotest.(check (option int)) "le" (Some 101)
    (trip "int a[200]; void f() { int i; for (i=0;i<=100;i++) a[i]=1; }");
  Alcotest.(check (option int)) "step 3" (Some 34)
    (trip "int a[100]; void f() { int i; for (i=0;i<100;i+=3) a[i]=1; }");
  Alcotest.(check (option int)) "downward" (Some 100)
    (trip "int a[100]; void f() { int i; for (i=99;i>=0;i--) a[i]=1; }");
  Alcotest.(check (option int)) "empty" (Some 0)
    (trip "int a[8]; void f() { int i; for (i=5;i<5;i++) a[i]=1; }")

let test_trip_const_folded_bound () =
  Alcotest.(check (option int)) "N*2-1 folds" (Some 127)
    (trip
       "int a[200]; void f() { int i; for (i=0;i<64*2-1;i++) a[i]=1; }")

let suite =
  [
    ( "analysis.scev",
      [
        Alcotest.test_case "affine arithmetic" `Quick test_scev_affine_arithmetic;
        Alcotest.test_case "nonlinear unknown" `Quick test_scev_nonlinear_unknown;
        Alcotest.test_case "shl as mul" `Quick test_scev_shl_is_mul;
        Alcotest.test_case "const delta" `Quick test_scev_const_delta;
        Alcotest.test_case "loop index coefficients" `Quick
          test_scev_index_of_loop;
        Alcotest.test_case "loop-carried unknown" `Quick
          test_scev_loop_carried_unknown;
      ] );
    ( "analysis.access",
      [
        Alcotest.test_case "order and kind" `Quick test_access_order_and_kind;
        Alcotest.test_case "predicated flag" `Quick test_access_predicated_flag;
        Alcotest.test_case "stride includes step" `Quick
          test_access_stride_includes_step;
      ] );
    ( "analysis.reduction",
      [
        Alcotest.test_case "all kinds" `Quick test_reduction_kinds;
        Alcotest.test_case "float flag" `Quick test_reduction_float;
        Alcotest.test_case "scan blocked" `Quick test_reduction_scan_blocked;
        Alcotest.test_case "double update blocked" `Quick
          test_reduction_two_updates_blocked;
        Alcotest.test_case "identity values" `Quick
          test_reduction_identity_values;
        Alcotest.test_case "linear in the body" `Quick test_reduction_linear;
      ] );
    ( "analysis.depend",
      [
        Alcotest.test_case "flow distance" `Quick test_dep_flow_distance;
        Alcotest.test_case "anti unconstrained" `Quick
          test_dep_anti_unconstrained;
        Alcotest.test_case "parity disjoint" `Quick test_dep_disjoint_parity;
        Alcotest.test_case "coeff mismatch unknown" `Quick
          test_dep_different_coeffs_unknown;
        Alcotest.test_case "loads only" `Quick test_dep_loads_only_no_constraint;
        Alcotest.test_case "output dependence" `Quick test_dep_output_dependence;
      ] );
    ( "analysis.trip",
      [
        Alcotest.test_case "trip counts" `Quick test_trip_counts;
        Alcotest.test_case "const-folded bound" `Quick
          test_trip_const_folded_bound;
      ] );
  ]
