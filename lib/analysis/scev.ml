(** Scalar evolution: symbolic affine analysis of register values.

    Values inside a loop nest are represented as affine combinations of
    "symbols" — induction-variable registers of the enclosing loops plus
    loop-invariant registers — with an integer constant term. Anything
    nonlinear collapses to [Unknown]. This is the same information LLVM's
    SCEV provides to the loop vectorizer: access strides per loop and
    dependence-testable index functions. *)

module IntMap = Map.Make (Int)

(** An affine value: [sum (coeff_r * r) + const] over symbol registers. *)
type affine = { coeffs : int IntMap.t; const : int }

type sval = Affine of affine | Unknown

let const_aff c = Affine { coeffs = IntMap.empty; const = c }

let sym_aff r = Affine { coeffs = IntMap.singleton r 1; const = 0 }

let is_const = function
  | Affine a when IntMap.is_empty a.coeffs -> Some a.const
  | _ -> None

let add_sv a b =
  match (a, b) with
  | Affine x, Affine y ->
      Affine
        { coeffs =
            IntMap.union (fun _ c1 c2 -> if c1 + c2 = 0 then None else Some (c1 + c2))
              x.coeffs y.coeffs;
          const = x.const + y.const }
  | _ -> Unknown

let neg_sv = function
  | Affine x ->
      Affine { coeffs = IntMap.map (fun c -> -c) x.coeffs; const = -x.const }
  | Unknown -> Unknown

let sub_sv a b = add_sv a (neg_sv b)

let mul_sv a b =
  match (is_const a, is_const b, a, b) with
  | Some ca, _, _, Affine y ->
      if ca = 0 then const_aff 0
      else
        Affine
          { coeffs = IntMap.filter_map (fun _ c -> if c * ca = 0 then None else Some (c * ca)) y.coeffs;
            const = y.const * ca }
  | _, Some cb, Affine x, _ ->
      if cb = 0 then const_aff 0
      else
        Affine
          { coeffs = IntMap.filter_map (fun _ c -> if c * cb = 0 then None else Some (c * cb)) x.coeffs;
            const = x.const * cb }
  | _ -> Unknown

let shl_sv a b =
  match is_const b with
  | Some s when s >= 0 && s < 31 -> mul_sv a (const_aff (1 lsl s))
  | _ -> Unknown

(** Symbol environment for abstract evaluation. *)
type env = {
  mutable vals : sval IntMap.t;  (** current abstract value per register *)
  defined_in_loop : unit IntMap.t;
      (** registers (re)defined anywhere in the analysed region; reading one
          before its definition means a loop-carried scalar — [Unknown] *)
  induction : unit IntMap.t;  (** enclosing induction variables *)
}

(** Registers defined by an instruction list (including nested nodes). *)
let defined_regs (nodes : Ir.node list) : unit IntMap.t =
  let acc = ref IntMap.empty in
  let instr = function
    | Ir.Def (r, _) -> acc := IntMap.add r () !acc
    | Ir.CallI (Some r, _, _) -> acc := IntMap.add r () !acc
    | Ir.Store _ | Ir.CallI (None, _, _) -> ()
  in
  List.iter instr (Ir.all_instrs nodes);
  (* loop induction variables of nested loops are also defined *)
  let rec nested n =
    match n with
    | Ir.Loop l ->
        acc := IntMap.add l.Ir.l_var () !acc;
        List.iter nested l.Ir.l_body
    | Ir.If { then_; else_; _ } ->
        List.iter nested then_;
        List.iter nested else_
    | Ir.WhileLoop { w_body; _ } -> List.iter nested w_body
    | _ -> ()
  in
  List.iter nested nodes;
  !acc

let make_env ~(induction_vars : Ir.reg list) (region : Ir.node list) : env =
  {
    vals =
      List.fold_left
        (fun m r -> IntMap.add r (sym_aff r) m)
        IntMap.empty induction_vars;
    defined_in_loop = defined_regs region;
    induction =
      List.fold_left (fun m r -> IntMap.add r () m) IntMap.empty induction_vars;
  }

(** Abstract value of [v], reading registers through [lookup]. *)
let eval_value_by (lookup : Ir.reg -> sval) (v : Ir.value) : sval =
  match v with
  | Ir.IConst i ->
      let i = Int64.to_int i in
      const_aff i
  | Ir.FConst _ -> Unknown
  | Ir.Reg r -> lookup r

(** Abstract value of [rv], reading registers through [lookup] — the one
    rvalue evaluator, shared by the environment below and the cycle
    model's dense per-register footprint walk. *)
let eval_rvalue_by (lookup : Ir.reg -> sval) (rv : Ir.rvalue) : sval =
  match rv with
  | Ir.IBin (op, _, a, b) -> (
      let va = eval_value_by lookup a and vb = eval_value_by lookup b in
      match op with
      | Ir.Add -> add_sv va vb
      | Ir.Sub -> sub_sv va vb
      | Ir.Mul -> mul_sv va vb
      | Ir.Shl -> shl_sv va vb
      | Ir.SDiv -> (
          match (is_const va, is_const vb) with
          | Some x, Some y when y <> 0 -> const_aff (x / y)
          | _ -> Unknown)
      | Ir.SRem | Ir.AShr | Ir.And | Ir.Or | Ir.Xor -> (
          match (is_const va, is_const vb) with
          | Some x, Some y ->
              const_aff
                (Int64.to_int
                   (Ir_interp.ibin_eval op (Int64.of_int x) (Int64.of_int y)))
          | _ -> Unknown))
  | Ir.Cast ((Ir.SExt | Ir.ZExt | Ir.Trunc), _, _, v) ->
      (* index math casts are value-preserving in our corpus's ranges *)
      eval_value_by lookup v
  | Ir.Mov (_, v) -> eval_value_by lookup v
  | Ir.FBin _ | Ir.ICmp _ | Ir.FCmp _ | Ir.Select _ | Ir.Cast _ | Ir.Load _
  | Ir.Splat _ | Ir.Extract _ | Ir.Reduce _ | Ir.Stride _ ->
      Unknown

(** A register's abstract value in [env]. *)
let lookup (env : env) (r : Ir.reg) : sval =
  match IntMap.find_opt r env.vals with
  | Some sv -> sv
  | None ->
      if IntMap.mem r env.defined_in_loop then
        (* read before its in-region definition: loop-carried scalar *)
        Unknown
      else
        (* defined outside and never modified inside: loop-invariant *)
        sym_aff r

let eval_value (env : env) (v : Ir.value) : sval =
  eval_value_by (lookup env) v

let eval_rvalue (env : env) (rv : Ir.rvalue) : sval =
  eval_rvalue_by (lookup env) rv

(** Process one instruction, updating the environment. *)
let step (env : env) (i : Ir.instr) : unit =
  match i with
  | Ir.Def (r, rv) ->
      if not (IntMap.mem r env.induction) then
        env.vals <- IntMap.add r (eval_rvalue env rv) env.vals
  | Ir.CallI (Some r, _, _) -> env.vals <- IntMap.add r Unknown env.vals
  | Ir.Store _ | Ir.CallI (None, _, _) -> ()

(** Coefficient of symbol [r] in an affine value (0 if absent). *)
let coeff_of (r : Ir.reg) = function
  | Affine a -> IntMap.find_opt r a.coeffs |> Option.value ~default:0
  | Unknown -> 0

(** Do two affine values differ only in their constant term? If so return
    [Some (b.const - a.const)]. This is the core dependence test. *)
let const_delta (a : sval) (b : sval) : int option =
  match (a, b) with
  | Affine x, Affine y ->
      if IntMap.equal Int.equal x.coeffs y.coeffs then Some (y.const - x.const)
      else None
  | _ -> None
