(** Inline translation validation (ROADMAP item 4).

    Given a scalar reference module and the transformed module a plan
    produced, interpret both over a small content-derived input set and
    decide equivalence.  This promotes the offline differential suite
    (test/test_differential.ml) into an always-available oracle the reward
    loop can run per (program, plan): a refutation becomes the
    [Miscompiled] failure kind in the reward taxonomy, carrying a
    counterexample naming the input, the first diverging memory cell and
    both values.

    {b Determinism.}  The input set is a pure function of the caller's
    content [key] (hash of program + applied plan): a fixed simplicity
    ladder — all-zero memory, a small ramp, then two seeded fills whose
    seeds come from the digest of the key.  No wall clock, no shared RNG,
    so a [--jobs N] sweep verifies exactly the inputs a [--jobs 1] sweep
    verifies and both produce bit-identical verdicts.  Inputs are tried in
    simplicity order and the first refuting input reports, so the
    counterexample is minimized by construction: a plan refuted on zeros
    never reports a noisy seeded fill.

    {b Tolerance policy.}  Integer memory and integer results must match
    bit for bit.  Float observations accept a relative error of {!tol}
    (matching the differential suite): vectorizing a float reduction
    reassociates the sum, which is a legal rounding change, not a
    miscompile.  NaN equals NaN.  A scalar-side trap on some input skips
    that input (the reference itself cannot evaluate there); a trap only
    on the transformed side is a refutation. *)

exception Miscompile of string
(** Raised by callers (the pipeline) when a plan's verdict is a
    refutation; carries the rendered counterexample.  Deliberately NOT a
    transient failure: a miscompile is a pure function of (program, plan),
    so the supervisor must never retry it. *)

(* ------------------------------------------------------------------ *)
(* Execution engine                                                     *)
(* ------------------------------------------------------------------ *)

(** Which engine interprets kernels.  [Vm] compiles modules to {!Ir_vm}
    bytecode (content-addressed, cached) and falls back to the tree
    walker for anything outside the compiler's bit-exact subset; [Interp]
    forces the tree-walking reference.  Verdicts are bit-identical either
    way — that is the VM's contract, enforced by the differential suite —
    so this knob exists for benchmarking and for the CI differential
    gate, not for correctness. *)
type engine = Vm | Interp

let engine_of_env () : engine =
  match Sys.getenv_opt "NEUROVEC_TV_ENGINE" with
  | Some ("interp" | "tree") -> Interp
  | Some "vm" | None -> Vm
  | Some other ->
      Printf.eprintf
        "neurovec: unknown NEUROVEC_TV_ENGINE=%S (want vm|interp); using vm\n\
         %!"
        other;
      Vm

let cur_engine : engine Atomic.t = Atomic.make (engine_of_env ())
let set_engine (e : engine) : unit = Atomic.set cur_engine e
let engine () : engine = Atomic.get cur_engine

(** Steps executed by the tree walker on behalf of verification (the VM
    counts its own in [Ir_vm.vm_steps]). *)
let tree_steps = Counter.make "tv.tree_steps"

(* ------------------------------------------------------------------ *)
(* Content-derived inputs                                               *)
(* ------------------------------------------------------------------ *)

type input =
  | Zeros  (** every array cell zero — the simplest possible memory *)
  | Ramp  (** small signed ramp, cell i = (i mod 7) - 3, exercising sign *)
  | Hashed of int  (** the interpreter's seeded deterministic fill *)

let input_name = function
  | Zeros -> "zeros"
  | Ramp -> "ramp"
  | Hashed s -> Printf.sprintf "hashed(seed=%d)" s

(* two seeds from the digest bytes of the content key: deterministic in
   hash(program, plan), nonzero, independent of process state *)
let seeds_of_key (key : string) : int * int =
  let d = Digest.string key in
  let byte i = Char.code d.[i] in
  let word k =
    (byte k lor (byte (k + 1) lsl 8) lor (byte (k + 2) lsl 16)
    lor (byte (k + 3) lsl 24))
    land 0x3FFFFFFF
  in
  (1 + word 0, 1 + word 4)

(** The verification inputs for [key], in simplicity order (the order
    defines counterexample minimality). *)
let inputs_of_key (key : string) : input list =
  let s1, s2 = seeds_of_key key in
  [ Zeros; Ramp; Hashed s1; Hashed s2 ]

let state_for (m : Ir.modul) (inp : input) : Ir_interp.state =
  match inp with
  | Hashed s -> Ir_interp.init_state ~seed:s m
  | Zeros ->
      let st = Ir_interp.init_state m in
      Hashtbl.iter
        (fun _ mem ->
          match mem with
          | Ir_interp.MI a -> Array.fill a 0 (Array.length a) 0L
          | Ir_interp.MF a -> Array.fill a 0 (Array.length a) 0.0)
        st.Ir_interp.mem;
      st
  | Ramp ->
      let st = Ir_interp.init_state m in
      Hashtbl.iter
        (fun _ mem ->
          match mem with
          | Ir_interp.MI a ->
              Array.iteri
                (fun i _ -> a.(i) <- Int64.of_int ((i mod 7) - 3))
                a
          | Ir_interp.MF a ->
              Array.iteri
                (fun i _ -> a.(i) <- float_of_int ((i mod 7) - 3) *. 0.5)
                a)
        st.Ir_interp.mem;
      st

(* ------------------------------------------------------------------ *)
(* Running and comparing                                                *)
(* ------------------------------------------------------------------ *)

(** Documented ULP/relative tolerance for float observations — identical
    to the differential suite's: vectorized reductions reassociate. *)
let tol = 1e-3

let close (a : float) (b : float) : bool =
  Int64.bits_of_float a = Int64.bits_of_float b
  || abs_float (a -. b) <= tol *. (abs_float a +. abs_float b +. 1.0)
  || (Float.is_nan a && Float.is_nan b)

type run = {
  run_rv : Ir_interp.rvalue_v option;
  run_mem : (string * Ir_interp.mem) list;  (** sorted by array name *)
}

let find_fn (m : Ir.modul) (name : string) : Ir.func option =
  List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs

let mem_assoc_of_state (st : Ir_interp.state) :
    (string * Ir_interp.mem) list =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.Ir_interp.mem [])

let run_kernel_tree (m : Ir.modul) ~(kernel : string) (inp : input) :
    (run, string) result =
  match find_fn m kernel with
  | None -> Error (Printf.sprintf "kernel %s not found" kernel)
  | Some fn -> (
      let st = state_for m inp in
      let count () = Counter.add tree_steps st.Ir_interp.steps in
      match Ir_interp.run_func st fn () with
      | r ->
          count ();
          Ok { run_rv = r; run_mem = mem_assoc_of_state st }
      | exception Ir_interp.Trap msg ->
          count ();
          Error msg)

(** Interpret [kernel] of [m] on [inp].  When the engine is [Vm] and the
    caller supplies [vm_key] (a content key uniquely identifying the
    module's semantics), the kernel runs as cached {!Ir_vm} bytecode over
    the same input memory — bit-identical results, traps, and fuel by the
    VM's contract; modules outside the compiled subset fall back to the
    tree walker. *)
let run_kernel ?(vm_key : string option) (m : Ir.modul) ~(kernel : string)
    (inp : input) : (run, string) result =
  match vm_key with
  | Some key when engine () = Vm -> (
      match Ir_vm.load ~key m ~kernel with
      | None -> run_kernel_tree m ~kernel inp
      | Some prog -> (
          let st = state_for m inp in
          let mem = mem_assoc_of_state st in
          match Ir_vm.run prog ~mem () with
          | out -> Ok { run_rv = out.Ir_vm.o_result; run_mem = mem }
          | exception Ir_interp.Trap msg -> Error msg
          | exception Ir_vm.Deopt ->
              (* the VM abandoned the native-int invariant mid-run;
                 [mem] may be partially mutated — rerun from fresh state *)
              run_kernel_tree m ~kernel inp))
  | _ -> run_kernel_tree m ~kernel inp

type counterexample = {
  cx_input : string;  (** which derived input refuted the plan *)
  cx_cell : string;  (** first diverging observation, e.g. ["a[3]"] *)
  cx_scalar : string;  (** the scalar reference's value there *)
  cx_vector : string;  (** the transformed module's value there *)
}

type verdict = Equivalent | Refuted of counterexample

let render (cx : counterexample) : string =
  Printf.sprintf "input=%s cell=%s scalar=%s vector=%s" cx.cx_input
    cx.cx_cell cx.cx_scalar cx.cx_vector

let show_value = function
  | None -> "none"
  | Some (Ir_interp.VI i) -> Int64.to_string i
  | Some (Ir_interp.VF f) -> Printf.sprintf "%h" f
  | Some (Ir_interp.VVI _ | Ir_interp.VVF _) -> "<vector>"

let value_equiv (a : Ir_interp.rvalue_v option)
    (b : Ir_interp.rvalue_v option) : bool =
  match (a, b) with
  | Some (Ir_interp.VF x), Some (Ir_interp.VF y) -> close x y
  | _ -> a = b

(* first diverging cell across both memories, scanning arrays in sorted
   name order and each array from index 0, so the reported cell is the
   lexicographically first divergence *)
let first_divergence (s : run) (v : run) : counterexample option =
  let refute cell sc vec =
    Some { cx_input = ""; cx_cell = cell; cx_scalar = sc; cx_vector = vec }
  in
  if List.map fst s.run_mem <> List.map fst v.run_mem then
    refute "arrays" "reference array set" "different array set"
  else
    List.fold_left2
      (fun acc (name, ms) (_, mv) ->
        match acc with
        | Some _ -> acc
        | None -> (
            match (ms, mv) with
            | Ir_interp.MI a, Ir_interp.MI b ->
                if Array.length a <> Array.length b then
                  refute name
                    (Printf.sprintf "%d cells" (Array.length a))
                    (Printf.sprintf "%d cells" (Array.length b))
                else begin
                  let bad = ref None in
                  Array.iteri
                    (fun i x ->
                      if !bad = None && x <> b.(i) then bad := Some i)
                    a;
                  match !bad with
                  | None -> None
                  | Some i ->
                      refute
                        (Printf.sprintf "%s[%d]" name i)
                        (Int64.to_string a.(i))
                        (Int64.to_string b.(i))
                end
            | Ir_interp.MF a, Ir_interp.MF b ->
                if Array.length a <> Array.length b then
                  refute name
                    (Printf.sprintf "%d cells" (Array.length a))
                    (Printf.sprintf "%d cells" (Array.length b))
                else begin
                  let bad = ref None in
                  Array.iteri
                    (fun i x ->
                      if !bad = None && not (close x b.(i)) then
                        bad := Some i)
                    a;
                  match !bad with
                  | None -> None
                  | Some i ->
                      refute
                        (Printf.sprintf "%s[%d]" name i)
                        (Printf.sprintf "%h" a.(i))
                        (Printf.sprintf "%h" b.(i))
                end
            | _ -> refute name "int array" "float array"))
      None s.run_mem v.run_mem

let compare_runs ~(inp : input) (s : run) (v : run) : verdict =
  if not (value_equiv s.run_rv v.run_rv) then
    Refuted
      { cx_input = input_name inp; cx_cell = "result";
        cx_scalar = show_value s.run_rv; cx_vector = show_value v.run_rv }
  else
    match first_divergence s v with
    | None -> Equivalent
    | Some cx -> Refuted { cx with cx_input = input_name inp }

(* ------------------------------------------------------------------ *)
(* Sabotage (the [miscompile=P] fault knob)                             *)
(* ------------------------------------------------------------------ *)

(* Corrupt one memory cell of a transformed run, deterministically in the
   content key: the first non-empty array in sorted name order, at index
   hash(key) mod length.  Integers get +1; floats get a change guaranteed
   to exceed the relative tolerance.  When the module has no arrays the
   return value is corrupted instead.  This simulates a wrong-code
   transform so tests (and the CI smoke) can watch the validator catch it
   with a minimized counterexample. *)

let str_hash (s : string) : int =
  let h = ref 5381 in
  String.iter
    (fun c -> h := (((!h lsl 5) + !h + Char.code c)) land 0x3FFFFFF)
    s;
  !h

let sabotage_run ~(key : string) (v : run) : run =
  let corrupted = ref false in
  let mem =
    List.map
      (fun (name, m) ->
        match m with
        | _ when !corrupted -> (name, m)
        | Ir_interp.MI a when Array.length a > 0 ->
            corrupted := true;
            let a = Array.copy a in
            let i = str_hash key mod Array.length a in
            a.(i) <- Int64.add a.(i) 1L;
            (name, Ir_interp.MI a)
        | Ir_interp.MF a when Array.length a > 0 ->
            corrupted := true;
            let a = Array.copy a in
            let i = str_hash key mod Array.length a in
            a.(i) <- (a.(i) *. 1.01) +. 1.0;
            (name, Ir_interp.MF a)
        | m -> (name, m))
      v.run_mem
  in
  if !corrupted then { v with run_mem = mem }
  else
    { v with
      run_rv =
        (match v.run_rv with
        | Some (Ir_interp.VI i) -> Some (Ir_interp.VI (Int64.add i 1L))
        | Some (Ir_interp.VF f) -> Some (Ir_interp.VF ((f *. 1.01) +. 1.0))
        | rv -> rv) }

(* ------------------------------------------------------------------ *)
(* Scalar-run cache                                                     *)
(* ------------------------------------------------------------------ *)

(* The scalar reference's final state depends only on (scalar module,
   input), never on the plan under verification, so the zeros and ramp
   runs of one program are shared by every plan of its sweep, in the
   [tv-scalar] {!Memo} table ([NEUROVEC_TV_CAP] entries).  The hashed
   fills are seeded by hash(program, plan), so no other plan ever asks
   for them: they run uncached, since caching them would only churn the
   table and evict the shared runs.  The cap stays modest: the runs
   carry whole final memories, so this is the heaviest table per entry. *)

let scalar_runs : (run, string) result Memo.t =
  Memo.create ~name:"tv-scalar"
    ~cap:(Memo.cap_of_env "NEUROVEC_TV_CAP" ~default:256)

let scalar_run ~(scalar_key : string) ~(kernel : string)
    (scalar : Ir.modul) (inp : input) : (run, string) result =
  let run () = run_kernel ~vm_key:scalar_key scalar ~kernel inp in
  match inp with
  | Hashed _ -> run ()
  | Zeros | Ramp ->
      Memo.find_or_add scalar_runs (scalar_key ^ "|" ^ input_name inp) run

(* ------------------------------------------------------------------ *)
(* The verdict                                                          *)
(* ------------------------------------------------------------------ *)

(** Decide whether [transformed] computes the scalar reference's function
    on the input set derived from [key].  [scalar_key] identifies the
    scalar reference for the scalar-run cache (it must not depend on the
    plan); [sabotage] corrupts the transformed run (the [miscompile]
    fault knob) so the refutation machinery can be exercised end to end.
    Inputs where the scalar reference itself traps are skipped; a trap
    only in the transformed module refutes. *)
let verify ?(sabotage = false) ~(key : string) ~(scalar : Ir.modul)
    ~(scalar_key : string) ~(kernel : string) (transformed : Ir.modul) :
    verdict =
  let rec go = function
    | [] -> Equivalent
    | inp :: rest -> (
        match scalar_run ~scalar_key ~kernel scalar inp with
        | Error _ -> go rest (* the reference cannot evaluate this input *)
        | Ok s -> (
            match run_kernel ~vm_key:key transformed ~kernel inp with
            | Error msg ->
                Refuted
                  { cx_input = input_name inp; cx_cell = "trap";
                    cx_scalar = "completed"; cx_vector = msg }
            | Ok v -> (
                let v = if sabotage then sabotage_run ~key v else v in
                match compare_runs ~inp s v with
                | Equivalent -> go rest
                | refuted -> refuted)))
  in
  go (inputs_of_key key)
