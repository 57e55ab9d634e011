(** Rectangular loop tiling on a permutable SCoP band.

    {v for (i = lo; i < hi; i++) ...            becomes

       for (it = lo; it < hi; it += T)
         for (i = it; i < min(hi, it + T); i++) ... v}

    applied to every level of the band. Tiling shrinks the address span
    each inner loop sweeps, which the machine model rewards with L1-level
    bandwidth — the same locality effect Polly's tiling has on real
    hardware. *)

(** Only simple upward bands are tiled: step +1, [<] comparison, constant
    bounds. (The SCoP detector already guarantees static trip counts.) *)
let tileable_loop (l : Ir.loop) : (int * int) option =
  if l.Ir.l_step <> 1 || l.Ir.l_cmp <> Ir.CLt then None
  else
    match
      ( Analysis.Loopinfo.eval_code_const l.Ir.l_init,
        Analysis.Loopinfo.eval_code_const l.Ir.l_bound )
    with
    | Some lo, Some hi -> Some (lo, hi)
    | _ -> None

let tileable (s : Scop.t) : bool =
  List.length s.Scop.nest >= 2
  && List.for_all (fun l -> tileable_loop l <> None) s.Scop.nest
  && Scop.is_permutable s

(** Build the tiled replacement for the band. [tile] is the tile size used
    at every level (levels with trip count <= tile are left untiled). *)
let tile_band (fn : Ir.func) (s : Scop.t) ~(tile : int) : Ir.node =
  let nest = s.Scop.nest in
  let innermost = List.nth nest (List.length nest - 1) in
  let levels =
    List.map
      (fun l ->
        match tileable_loop l with
        | Some (lo, hi) -> (l, lo, hi, hi - lo > tile)
        | None -> assert false)
      nest
  in
  (* point loops, innermost body preserved *)
  let rec build_points (lvls : (Ir.loop * int * int * bool) list)
      (tile_vars : (Ir.reg * Ir.reg) list) : Ir.node =
    match lvls with
    | [] -> assert false
    | (l, _, hi, tiled) :: rest ->
        let var_sty =
          match Ir.reg_ty fn l.Ir.l_var with Ir.Scalar st -> st | Ir.Vec _ -> Ir.I64
        in
        let init, bound, hint =
          if tiled then begin
            let tv = List.assoc l.Ir.l_var tile_vars in
            (* i from tv while i < min(hi, tv + tile) *)
            let a = Ir.fresh_reg fn (Ir.Scalar var_sty) in
            let c = Ir.fresh_reg fn (Ir.Scalar Ir.I1) in
            let mn = Ir.fresh_reg fn (Ir.Scalar var_sty) in
            ( ([], Ir.Reg tv),
              ( [ Ir.Def (a, Ir.IBin (Ir.Add, Ir.Scalar var_sty, Ir.Reg tv,
                                      Ir.IConst (Int64.of_int tile)));
                  Ir.Def (c, Ir.ICmp (Ir.CLt, Ir.Scalar var_sty, Ir.Reg a,
                                      Ir.IConst (Int64.of_int hi)));
                  Ir.Def (mn, Ir.Select (Ir.Scalar var_sty, Ir.Reg c, Ir.Reg a,
                                         Ir.IConst (Int64.of_int hi))) ],
                Ir.Reg mn ),
              Some tile )
          end
          else (l.Ir.l_init, l.Ir.l_bound, None)
        in
        let body =
          match rest with
          | [] -> innermost.Ir.l_body
          | _ -> [ build_points rest tile_vars ]
        in
        Ir.Loop
          { l with Ir.l_init = init; l_bound = bound; l_body = body;
            l_pragma = l.Ir.l_pragma; l_trip_hint = hint }
  in
  (* tile loops outside *)
  let rec build_tiles (lvls : (Ir.loop * int * int * bool) list)
      (tile_vars : (Ir.reg * Ir.reg) list) : Ir.node =
    match lvls with
    | [] -> build_points levels (List.rev tile_vars)
    | (l, lo, hi, tiled) :: rest ->
        if not tiled then build_tiles rest tile_vars
        else begin
          let var_sty =
            match Ir.reg_ty fn l.Ir.l_var with
            | Ir.Scalar st -> st
            | Ir.Vec _ -> Ir.I64
          in
          let tv = Ir.fresh_reg fn (Ir.Scalar var_sty) in
          let inner = build_tiles rest ((l.Ir.l_var, tv) :: tile_vars) in
          Ir.Loop
            {
              Ir.l_id = l.Ir.l_id + 200000;
              l_var = tv;
              l_init = ([], Ir.IConst (Int64.of_int lo));
              l_bound = ([], Ir.IConst (Int64.of_int hi));
              l_cmp = Ir.CLt;
              l_step = tile;
              l_pragma = None;
              l_site = None;
              l_body = [ inner ];
              l_trip_hint = None;
            }
        end
  in
  build_tiles levels []

(** Tile the SCoP in place within the function body. Returns true if the
    band was found and rewritten. *)
let apply (fn : Ir.func) (s : Scop.t) ~(tile : int) : bool =
  let target_id = (List.hd s.Scop.nest).Ir.l_id in
  let found = ref false in
  let rec rewrite nodes =
    List.map
      (fun n ->
        match n with
        | Ir.Loop l when l.Ir.l_id = target_id ->
            found := true;
            tile_band fn s ~tile
        | Ir.Loop l -> Ir.Loop { l with Ir.l_body = rewrite l.Ir.l_body }
        | Ir.If { cond; then_; else_ } ->
            Ir.If { cond; then_ = rewrite then_; else_ = rewrite else_ }
        | Ir.WhileLoop { w_cond; w_body } ->
            Ir.WhileLoop { w_cond; w_body = rewrite w_body }
        | other -> other)
      nodes
  in
  fn.Ir.fn_body <- rewrite fn.Ir.fn_body;
  !found
