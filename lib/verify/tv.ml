(** Inline translation validation.

    Given a scalar reference module and the transformed module a plan
    produced, interpret both over a small content-derived input set and
    decide equivalence.  This promotes the offline differential suite
    (test/test_differential.ml) into an always-available oracle the reward
    loop can run per (program, plan): a refutation becomes the
    [Miscompiled] failure kind in the reward taxonomy, carrying a
    counterexample naming the input, the first diverging memory cell and
    both values.

    {b Determinism.}  The input set is a pure function of the program:
    of the caller's [scalar_key] (content hash + kernel), never of the
    plan, so every plan of a program is checked on the same inputs.  It
    is a fixed simplicity ladder — all-zero memory, a small ramp, then
    two seeded fills whose seeds come from the digest of the key.  No
    wall clock, no shared RNG, so a [--jobs N] sweep verifies exactly the
    inputs a [--jobs 1] sweep verifies and both produce bit-identical
    verdicts.  Inputs are tried in simplicity order and the first refuting
    input reports, so the counterexample is minimized by construction: a
    plan refuted on zeros never reports a noisy seeded fill.

    {b Inputs as native planes.}  Each input is built once per (program,
    input), directly in the VM's memory format ({!Ir_vm.image} over
    {!Ir_interp}'s fills), and cached with the scalar reference's run on
    it; every side runs on its own copy, so the shared image is never
    written, and a transformed module with other arrays gets its own.
    The tree walker — the [interp] engine, modules the VM declines, and
    {!Ir_vm.Deopt} reruns — builds its boxed state from the same fill; its
    [int64] cells compare against native ones with exact [Int64]
    semantics, so no verdict or counterexample depends on the engine.

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

exception Over_budget of string
(** Raised by {!verify}, before any input is built, when the two modules
    declare more array cells than {!cell_budget}: a verdict allocates
    every declared array at its declared size, so it refuses what it
    could not allocate instead of failing inside the allocator.  A pure
    function of the modules, like a trap. *)

(** The most array cells one verdict may declare, over the scalar and the
    transformed module together.  The largest corpus program, PolyBench
    [gemm], declares 196,608. *)
let cell_budget = 1 lsl 24

(* the cells the arrays of [ms] declare, saturating at [max_int]: a
   product of declared dims can overflow [int] *)
let declared_cells (ms : Ir.modul list) : int =
  let mul a b = if a <> 0 && b > max_int / a then max_int else a * b in
  let add a b = if a > max_int - b then max_int else a + b in
  List.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc a ->
          add acc (List.fold_left (fun n d -> mul n (max 0 d)) 1 a.Ir.arr_dims))
        acc m.Ir.m_arrays)
    0 ms

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

type input = Ir_interp.fill =
  | Zeros  (** every array cell zero — the simplest possible memory *)
  | Ramp  (** small signed ramp, cell i = (i mod 7) - 3, exercising sign *)
  | Hashed of int  (** the interpreter's seeded deterministic fill *)

let input_name = function
  | Zeros -> "zeros"
  | Ramp -> "ramp"
  | Hashed s -> Printf.sprintf "hashed(seed=%d)" s

(* two seeds from the digest bytes of a content key (the verdict's
   [scalar_key]: deterministic in the program, never the plan), nonzero,
   independent of process state *)
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

(** One array's final contents.  A VM run leaves its native planes; the
    tree walker leaves boxed cells, which compare against native ones with
    exact [Int64] semantics. *)
type cells = Native of int array | Boxed of int64 array | Floats of float array

type run = {
  run_rv : Ir_interp.rvalue_v option;
  run_mem : (string * cells) list;  (** sorted by array name *)
}

let find_fn (m : Ir.modul) (name : string) : Ir.func option =
  List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs

let by_name (a, _) (b, _) = String.compare a b

let mem_of_state (st : Ir_interp.state) : (string * cells) list =
  Hashtbl.fold
    (fun name mem acc ->
      let cells =
        match mem with
        | Ir_interp.MI a -> Boxed a
        | Ir_interp.MF a -> Floats a
      in
      (name, cells) :: acc)
    st.Ir_interp.mem []
  |> List.sort by_name

(* the planes [p] ran on, by array name *)
let mem_of_planes (p : Ir_vm.program) (pl : Ir_vm.planes) :
    (string * cells) list =
  Array.map
    (fun (name, plane) ->
      (name, match plane with `I a -> Native a | `F a -> Floats a))
    (Ir_vm.bindings p pl)
  |> Array.to_list |> List.sort by_name

let run_kernel_tree (m : Ir.modul) ~(kernel : string) (inp : input) :
    (run, string) result =
  match find_fn m kernel with
  | None -> Error (Printf.sprintf "kernel %s not found" kernel)
  | Some fn -> (
      let st = Ir_interp.init_state ~fill:inp m in
      let count () = Counter.add tree_steps st.Ir_interp.steps in
      match Ir_interp.run_func st fn () with
      | r ->
          count ();
          Ok { run_rv = r; run_mem = mem_of_state st }
      | exception Ir_interp.Trap msg ->
          count ();
          Error msg)

(** Interpret [kernel] of [m] on [inp].  When the engine is [Vm] and the
    caller supplies [vm_key] (a content key uniquely identifying the
    module's semantics), the kernel runs as cached {!Ir_vm} bytecode on
    its own copy of [image ()], the input's planes for [m]'s arrays —
    bit-identical results, traps, and fuel by the VM's contract.  Modules
    outside the compiled subset, and runs the VM abandons, tree-walk a
    fresh boxed state. *)
let run_kernel ?(vm_key : string option) ~(image : unit -> Ir_vm.planes)
    (m : Ir.modul) ~(kernel : string) (inp : input) : (run, string) result =
  match vm_key with
  | Some key when engine () = Vm -> (
      match Ir_vm.load ~key m ~kernel with
      | None -> run_kernel_tree m ~kernel inp
      | Some prog -> (
          let pl = Ir_vm.copy_for prog (image ()) in
          match Ir_vm.run_planes prog pl () with
          | out ->
              Ok
                { run_rv = out.Ir_vm.o_result;
                  run_mem = mem_of_planes prog pl }
          | exception Ir_interp.Trap msg -> Error msg
          | exception Ir_vm.Deopt ->
              (* the VM abandoned the native-int invariant mid-run; its
                 copy may be partially mutated — rerun from fresh state *)
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

let length = function
  | Native a -> Array.length a
  | Boxed a -> Array.length a
  | Floats a -> Array.length a

(* cell [i] of an integer array as the [Int64] the tree walker holds *)
let int64_cell (c : cells) (i : int) : int64 =
  match c with
  | Native a -> Int64.of_int a.(i)
  | Boxed a -> a.(i)
  | Floats _ -> invalid_arg "Tv.int64_cell: float array"

let show_cell (c : cells) (i : int) : string =
  match c with
  | Floats a -> Printf.sprintf "%h" a.(i)
  | Native _ | Boxed _ -> Int64.to_string (int64_cell c i)

(* first diverging cell across both memories, scanning arrays in sorted
   name order and each array from index 0, so the reported cell is the
   lexicographically first divergence *)
let first_divergence (s : run) (v : run) : counterexample option =
  let refute cell sc vec =
    Some { cx_input = ""; cx_cell = cell; cx_scalar = sc; cx_vector = vec }
  in
  let diverging name cs cv =
    match (cs, cv) with
    | (Native _ | Boxed _), Floats _ | Floats _, (Native _ | Boxed _) ->
        refute name "int array" "float array"
    | _ when length cs <> length cv ->
        refute name
          (Printf.sprintf "%d cells" (length cs))
          (Printf.sprintf "%d cells" (length cv))
    (* a plane neither side could store to is shared, hence equal *)
    | Native a, Native b when a == b -> None
    | Floats a, Floats b when a == b -> None
    | _ -> (
        let differs =
          match (cs, cv) with
          | Native a, Native b -> fun i -> a.(i) <> b.(i)
          | Floats a, Floats b -> fun i -> not (close a.(i) b.(i))
          | _ -> fun i -> not (Int64.equal (int64_cell cs i) (int64_cell cv i))
        in
        let n = length cs in
        let rec scan i =
          if i = n then None else if differs i then Some i else scan (i + 1)
        in
        match scan 0 with
        | None -> None
        | Some i ->
            refute
              (Printf.sprintf "%s[%d]" name i)
              (show_cell cs i) (show_cell cv i))
  in
  if List.map fst s.run_mem <> List.map fst v.run_mem then
    refute "arrays" "reference array set" "different array set"
  else
    List.fold_left2
      (fun acc (name, cs) (_, cv) ->
        match acc with Some _ -> acc | None -> diverging name cs cv)
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
      (fun (name, c) ->
        if !corrupted || length c = 0 then (name, c)
        else begin
          corrupted := true;
          let i = str_hash key mod length c in
          match c with
          | Floats a ->
              let a = Array.copy a in
              a.(i) <- (a.(i) *. 1.01) +. 1.0;
              (name, Floats a)
          | Native _ | Boxed _ ->
              (* in [Int64], as the tree walker's cells: a native cell at
                 max_int must not wrap *)
              let a = Array.init (length c) (int64_cell c) in
              a.(i) <- Int64.add a.(i) 1L;
              (name, Boxed a)
        end)
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
   input), and the whole ladder derives from [scalar_key], so every plan
   of a program is checked on the same four inputs.  One [tv-scalar]
   {!Memo} entry ([NEUROVEC_TV_CAP] entries) holds one input's image and
   the scalar reference's run on it, shared by every later verdict of the
   program: such a verdict runs only its transformed side, on its own
   copy of the cached image when the layouts match.  The image is built
   inside the cached computation whenever the VM engine is on (the tree
   walker builds its own boxed state), so no entry holds anything
   unforced.  A VM run is cached as its native planes; the planes it
   could not store to are the image's, which no run ever writes, and no
   reader writes a cached run.  The cap stays modest: an entry carries an
   image and a whole final memory, so this is the heaviest table per
   entry. *)

type scalar_entry = {
  s_image : Ir_vm.planes option;  (** [None] when built off the VM engine *)
  s_run : (run, string) result;
}

let scalar_runs : scalar_entry Memo.t =
  Memo.create ~name:"tv-scalar"
    ~cap:(Memo.cap_of_env "NEUROVEC_TV_CAP" ~default:256)

(** Input images built for verification, cached or not. *)
let images = Counter.make "tv.images"

let image (arrays : Ir.array_obj list) (inp : input) : Ir_vm.planes =
  Counter.incr images;
  Ir_vm.image arrays inp

let scalar_entry ~(scalar_key : string) ~(kernel : string)
    (scalar : Ir.modul) (inp : input) : scalar_entry =
  Memo.find_or_add scalar_runs (scalar_key ^ "|" ^ input_name inp) (fun () ->
      let s_image =
        if engine () = Vm then Some (image scalar.Ir.m_arrays inp) else None
      in
      let image () =
        match s_image with
        | Some im -> im
        | None -> image scalar.Ir.m_arrays inp
      in
      { s_image;
        s_run = run_kernel ~vm_key:scalar_key ~image scalar ~kernel inp })

(* ------------------------------------------------------------------ *)
(* The verdict                                                          *)
(* ------------------------------------------------------------------ *)

(* every verdict allocates each declared array, so one over
   {!cell_budget} is refused before anything runs or is proved *)
let check_budget ~(kernel : string) (scalar : Ir.modul)
    (transformed : Ir.modul) : unit =
  let cells = declared_cells [ scalar; transformed ] in
  if cells > cell_budget then
    raise
      (Over_budget
         (Printf.sprintf
            "%s: the scalar and transformed modules declare %s array cells, \
             over the %d-cell verification budget"
            kernel
            (if cells = max_int then "at least " ^ string_of_int max_int
             else string_of_int cells)
            cell_budget))

(** The four-input ladder: decide whether [transformed] computes the
    scalar reference's function on the input set derived from
    [scalar_key], which identifies the scalar reference (content hash and
    kernel; it must not depend on the plan) and keys the scalar-run
    cache.  [key] names the transformed module for the VM's code cache
    and seeds [sabotage], which corrupts the transformed run (the
    [miscompile] fault knob) so the refutation machinery can be exercised
    end to end.  Inputs where the scalar reference itself traps are
    skipped; a trap only in the transformed module refutes.  Each input's
    image and scalar run come from the scalar-run cache; the transformed
    side runs on its own copy.  Raises {!Over_budget} when the two
    modules declare more than {!cell_budget} cells. *)
let ladder ?(sabotage = false) ~(key : string) ~(scalar : Ir.modul)
    ~(scalar_key : string) ~(kernel : string) (transformed : Ir.modul) :
    verdict =
  check_budget ~kernel scalar transformed;
  let same_layout = scalar.Ir.m_arrays = transformed.Ir.m_arrays in
  let rec go = function
    | [] -> Equivalent
    | inp :: rest -> (
        let e = scalar_entry ~scalar_key ~kernel scalar inp in
        match e.s_run with
        | Error _ -> go rest (* the reference cannot evaluate this input *)
        | Ok s -> (
            let image () =
              match e.s_image with
              | Some im when same_layout -> im
              | _ -> image transformed.Ir.m_arrays inp
            in
            match run_kernel ~vm_key:key ~image transformed ~kernel inp with
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
  go (inputs_of_key scalar_key)

(** Verdicts {!Prove} decided without running anything, and verdicts
    offered to it (every verdict not sabotaged) that the ladder decided. *)
let proved = Counter.make "tv.proved"

let unproved = Counter.make "tv.unproved"

(** The verdict.  The cell budget is checked first, so an oversized
    module is refused exactly as the ladder refuses it.  Every verdict
    that is not sabotaged is first offered to {!Prove}: a proof answers
    [Equivalent] without building an input or running either module;
    whatever it declines or cannot prove, and every sabotaged verdict,
    takes the {!ladder}, so every refutation and counterexample is the
    ladder's. *)
let verify ?(sabotage = false) ~(key : string) ~(scalar : Ir.modul)
    ~(scalar_key : string) ~(kernel : string) (transformed : Ir.modul) :
    verdict =
  check_budget ~kernel scalar transformed;
  let ladder () = ladder ~sabotage ~key ~scalar ~scalar_key ~kernel transformed in
  if sabotage then ladder ()
  else
    match Prove.prove ~scalar ~kernel transformed with
    | Prove.Proved ->
        Counter.incr proved;
        Equivalent
    | Prove.Unknown_because _ ->
        Counter.incr unproved;
        ladder ()
