(* Differential testing of the vectorizer against a scalar reference.

   The oracle: for any generated program and ANY (VF, IF) pragma — legal
   requests get applied, illegal ones clamped — the full pipeline
   (LICM/CSE, planner, vectorizer, LICM again) must compute exactly what a
   plain scalar lowering computes: same return value, same final memory.
   Integer memory must match bit for bit; floating-point memory within a
   relative tolerance, because vectorizing a float reduction reassociates
   the sum.

   This is the safety net under the parallel evaluation engine: every
   measurement the pool hands out is a pipeline run, so "the pipeline
   never changes program semantics" is what makes racing evaluations
   harmless. *)

let tol = 1e-3

let find_fn (m : Ir.modul) (name : string) : Ir.func =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

(* bit-exact equality for engine cross-checks: NaN bits included *)
let rv_bits_equal (a : Ir_interp.rvalue_v option)
    (b : Ir_interp.rvalue_v option) : bool =
  match (a, b) with
  | Some (Ir_interp.VF x), Some (Ir_interp.VF y) ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | Some (Ir_interp.VVF x), Some (Ir_interp.VVF y) ->
      Array.length x = Array.length y
      && Array.for_all2
           (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
           x y
  | _ -> a = b

let mem_bits_equal (a : Ir_interp.mem) (b : Ir_interp.mem) : bool =
  match (a, b) with
  | Ir_interp.MI x, Ir_interp.MI y -> x = y
  | Ir_interp.MF x, Ir_interp.MF y ->
      Array.length x = Array.length y
      && Array.for_all2
           (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
           x y
  | _ -> false

(* interpret [m]'s kernel; returns the result and the final state.  When
   the bytecode compiler accepts the module, an identically-initialized
   memory image also runs through the VM and the outcome must be
   bit-identical — result, every memory cell, and the fuel count — so
   every differential run doubles as a VM-vs-interpreter gate. *)
let interp (m : Ir.modul) (kernel : string) :
    Ir_interp.rvalue_v option * Ir_interp.state =
  let st = Ir_interp.init_state m in
  let r = Ir_interp.run_func st (find_fn m kernel) () in
  (match Ir_vm.compile m ~kernel with
  | None -> ()
  | Some prog ->
      let pl =
        Ir_vm.copy_for prog (Ir_vm.image m.Ir.m_arrays (Ir_interp.Hashed 0))
      in
      (match Ir_vm.run_planes prog pl () with
      | exception Ir_vm.Deopt ->
          (* the VM detected a value outside its native-int invariant and
             declined at runtime; the tree-walker result stands alone *)
          ()
      | out ->
      if not (rv_bits_equal out.Ir_vm.o_result r) then
        Alcotest.failf "VM result diverged from the tree walker on %s" kernel;
      if out.Ir_vm.o_steps <> st.Ir_interp.steps then
        Alcotest.failf "VM fuel %d <> tree fuel %d on %s" out.Ir_vm.o_steps
          st.Ir_interp.steps kernel;
      Array.iter
        (fun (name, plane) ->
          let mv =
            match plane with
            | `I p -> Ir_interp.MI (Array.map Int64.of_int p)
            | `F p -> Ir_interp.MF p
          in
          if not (mem_bits_equal (Hashtbl.find st.Ir_interp.mem name) mv)
          then
            Alcotest.failf "VM memory for %s diverged from the tree walker"
              name)
        (Ir_vm.bindings prog pl)));
  (r, st)

(* plain scalar reference: parse + lower, no optimization, no vectorizer *)
let scalar_ref (p : Dataset.Program.t) :
    Ir_interp.rvalue_v option * Ir_interp.state =
  let prog = Minic.Parser.parse_string p.Dataset.Program.p_source in
  let m = Ir_lower.lower_program ~bindings:p.Dataset.Program.p_bindings prog in
  interp m p.Dataset.Program.p_kernel

let close (a : float) (b : float) : bool =
  abs_float (a -. b) <= tol *. (abs_float a +. abs_float b +. 1.0)
  || (Float.is_nan a && Float.is_nan b)

let value_equiv (a : Ir_interp.rvalue_v option)
    (b : Ir_interp.rvalue_v option) : bool =
  match (a, b) with
  | Some (Ir_interp.VF x), Some (Ir_interp.VF y) -> close x y
  | _ -> a = b

(* exact on integer arrays, tolerant on float arrays *)
let mem_equiv (s : Ir_interp.state) (v : Ir_interp.state) : string option =
  let names (st : Ir_interp.state) =
    Hashtbl.fold (fun k _ acc -> k :: acc) st.Ir_interp.mem []
    |> List.sort compare
  in
  if names s <> names v then Some "different array sets"
  else
    List.fold_left
      (fun acc name ->
        match acc with
        | Some _ -> acc
        | None -> (
            match
              ( Hashtbl.find s.Ir_interp.mem name,
                Hashtbl.find v.Ir_interp.mem name )
            with
            | Ir_interp.MI a, Ir_interp.MI b ->
                if a = b then None
                else Some (Printf.sprintf "int array %s diverged" name)
            | Ir_interp.MF a, Ir_interp.MF b ->
                if
                  Array.length a = Array.length b
                  && Array.for_all2 close a b
                then None
                else Some (Printf.sprintf "float array %s diverged" name)
            | _ -> Some (Printf.sprintf "array %s changed type" name)))
      None (names s)

let show_value = function
  | None -> "none"
  | Some (Ir_interp.VI i) -> Int64.to_string i
  | Some (Ir_interp.VF f) -> Printf.sprintf "%h" f
  | Some (Ir_interp.VVI _ | Ir_interp.VVF _) -> "<vector>"

(* the pipeline run under [decide], checked against the scalar reference *)
let check_against_ref ~(what : string) (p : Dataset.Program.t)
    (result : Neurovec.Pipeline.result) : unit =
  let r_ref, st_ref = scalar_ref p in
  let r_vec, st_vec =
    interp result.Neurovec.Pipeline.modul p.Dataset.Program.p_kernel
  in
  if not (value_equiv r_ref r_vec) then
    Alcotest.failf "%s of %s changed the result: scalar %s vs pipeline %s"
      what p.Dataset.Program.p_name (show_value r_ref) (show_value r_vec);
  match mem_equiv st_ref st_vec with
  | None -> ()
  | Some why ->
      Alcotest.failf "%s of %s changed memory: %s" what
        p.Dataset.Program.p_name why

let corpus = lazy (Dataset.Loopgen.generate ~seed:101 12)

(* every program x every one of the 35 actions, plus the baseline cost
   model's own choice: ~450 pipeline+interpreter runs *)
let test_all_actions_preserve_semantics () =
  Array.iter
    (fun p ->
      List.iter
        (fun act ->
          let vf = Rl.Spaces.vf_of act and if_ = Rl.Spaces.if_of act in
          check_against_ref
            ~what:(Printf.sprintf "(VF=%d, IF=%d)" vf if_)
            p
            (Neurovec.Pipeline.run_with_pragma p ~vf ~if_))
        Rl.Spaces.all_actions)
    (Lazy.force corpus)

let test_baseline_preserves_semantics () =
  Array.iter
    (fun p ->
      check_against_ref ~what:"baseline cost model" p
        (Neurovec.Pipeline.run_baseline p))
    (Lazy.force corpus)

(* qcheck: a fresh random program under a random action — different seeds
   than the deterministic corpus, so shrinkage in the generators shows up *)
let gen_case : (int * int) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (seed, flat) -> Printf.sprintf "seed=%d action=%d" seed flat)
    QCheck.Gen.(
      pair (int_range 1000 1999) (int_range 0 (Rl.Spaces.n_flat - 1)))

let prop_random_program_random_action =
  QCheck.Test.make ~name:"random loopgen program x random action" ~count:80
    gen_case (fun (seed, flat) ->
      let p = (Dataset.Loopgen.generate ~seed 1).(0) in
      let act = Rl.Spaces.of_flat flat in
      let vf = Rl.Spaces.vf_of act and if_ = Rl.Spaces.if_of act in
      let r_ref, st_ref = scalar_ref p in
      let r_vec, st_vec =
        interp
          (Neurovec.Pipeline.run_with_pragma p ~vf ~if_).Neurovec.Pipeline
            .modul p.Dataset.Program.p_kernel
      in
      value_equiv r_ref r_vec && mem_equiv st_ref st_vec = None)

let suite =
  [
    ( "differential.vectorizer",
      [
        Alcotest.test_case "all 35 actions, 12 programs" `Slow
          test_all_actions_preserve_semantics;
        Alcotest.test_case "baseline cost model" `Quick
          test_baseline_preserves_semantics;
        QCheck_alcotest.to_alcotest prop_random_program_random_action;
      ] );
  ]
