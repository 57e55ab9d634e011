(** In-memory spans for the traced run, recorded from the benchmark's own
    code around its calls into each layer (nothing inside [lib/] is
    instrumented).

    A span has a layer name, a parent, the domain it ran on and its
    interval.  Two refinements make self times add up to wall time:

    - [inner]: time a span spent in a {!Neurovec.Stats} phase (parse,
      lower, vectorize, timing, ...) is read from the domain-local phase
      counters around the span and credited to that phase's layer instead
      of the span's own layer.
    - [par]: a span that fans its children across [par] domains (a
      {!Neurovec.Parpool.map}) is charged only [1/par] of each child's
      duration, so a parallel section contributes its wall time, split by
      the children's busy time, and the pool keeps what is left over
      (idle workers, spawn and join).

    With both, a layer's self time is its spans' durations minus what
    their children and phases took, and the self times of every layer plus
    the gaps between top-level spans sum to the traced wall time. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  layer : string;
  domain : int;
  t0 : float;
  mutable t1 : float;
  mutable inner : (string * float) list;  (** layer -> seconds, from phases *)
  par : int;  (** children are charged [1/par] of their duration *)
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 0

(* the innermost open span of this domain; worker domains inherit the map
   span explicitly through [pool_map] *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let now = Unix.gettimeofday

(** The layer a {!Neurovec.Stats} phase belongs to. *)
let layer_of_phase = function
  | "parse" | "sema" -> "frontend"
  | "lower" | "polly" | "licm+cse" -> "prevec"
  | "vectorize" -> "planner"
  | "timing" -> "timing"
  | p -> p

let phase_secs () : float array =
  Array.copy (Neurovec.Stats.current ()).Neurovec.Stats.phase_secs

let push (s : span) = Mutex.protect lock (fun () -> spans := s :: !spans)

let fresh ~par layer t0 =
  { id = Atomic.fetch_and_add next_id 1; parent = Domain.DLS.get current;
    layer; domain = (Domain.self () :> int); t0; t1 = t0; inner = []; par }

(** Run [f] inside a span of [layer].  With [phases], time [f] spent in
    Stats phases on this domain is credited to the phases' layers.  A
    plain call when tracing is off. *)
let span ?(phases = false) ?(par = 1) (layer : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let s = fresh ~par layer (now ()) in
    let before = if phases then phase_secs () else [||] in
    Domain.DLS.set current s.id;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        Domain.DLS.set current s.parent;
        if phases then begin
          let after = phase_secs () in
          List.iter
            (fun p ->
              let i = Neurovec.Stats.phase_index p in
              let d = after.(i) -. before.(i) in
              if d > 0.0 then
                s.inner <-
                  (layer_of_phase (Neurovec.Stats.phase_name p), d) :: s.inner)
            Neurovec.Stats.all_phases
        end;
        push s)
      f
  end

(** Record an interval that ended already (time between two hook calls)
    as a span of [layer] under the current span. *)
let interval (layer : string) ~(t0 : float) ~(t1 : float) : unit =
  if !enabled then push { (fresh ~par:1 layer t0) with t1 }

(** A [Parpool.map]-shaped wrapper: the whole map is one [layer] span with
    [par = jobs]; each item runs with that span as its parent on whatever
    domain claims it. *)
let pool_map ~(jobs : int) (layer : string)
    (map : ('a -> 'b) -> 'a array -> 'b array) (f : 'a -> 'b) (xs : 'a array)
    : 'b array =
  if not !enabled then map f xs
  else
    span ~par:jobs layer (fun () ->
        let parent = Domain.DLS.get current in
        map
          (fun x ->
            let saved = Domain.DLS.get current in
            Domain.DLS.set current parent;
            Fun.protect
              ~finally:(fun () -> Domain.DLS.set current saved)
              (fun () -> f x))
          xs)

let all () : span list = Mutex.protect lock (fun () -> List.rev !spans)

(** Self time per layer (seconds) over every recorded span, and the traced
    wall time from the first span's start to the last span's end.  With
    [~busy:true] children of a parallel span are charged in full: the
    result is busy time per layer summed over domains, not wall time. *)
let self_times ?(busy = false) () : (string * float) list * float =
  let ss = all () in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) ss;
  let acc = Hashtbl.create 16 in
  let add layer d =
    Hashtbl.replace acc layer
      (d +. Option.value ~default:0.0 (Hashtbl.find_opt acc layer))
  in
  List.iter
    (fun s ->
      let parent = Hashtbl.find_opt by_id s.parent in
      let weight =
        match parent with
        | Some p when not busy -> 1.0 /. float_of_int (max 1 p.par)
        | _ -> 1.0
      in
      let dur = s.t1 -. s.t0 in
      add s.layer (weight *. dur);
      List.iter
        (fun (l, d) ->
          add l (weight *. d);
          add s.layer (-.weight *. d))
        s.inner;
      Option.iter (fun p -> add p.layer (-.weight *. dur)) parent)
    ss;
  let wall =
    match ss with
    | [] -> 0.0
    | _ ->
        let t0 = List.fold_left (fun m s -> Float.min m s.t0) infinity ss in
        let t1 = List.fold_left (fun m s -> Float.max m s.t1) neg_infinity ss in
        t1 -. t0
  in
  (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc []), wall)

(** Durations (seconds) of every span of [layer]. *)
let durations (layer : string) : float array =
  Array.of_list
    (List.filter_map
       (fun s -> if s.layer = layer then Some (s.t1 -. s.t0) else None)
       (all ()))

(** Pool statistics over every [layer] map span: (maps, efficiency = busy
    item time / (map wall x par), mean per-map overhead in seconds = map
    wall - busy / par). *)
let pool_stats (layer : string) : int * float * float =
  let ss = all () in
  let maps = List.filter (fun s -> s.layer = layer && s.par > 1) ss in
  let busy_of m =
    List.fold_left
      (fun acc s -> if s.parent = m.id then acc +. (s.t1 -. s.t0) else acc)
      0.0 ss
  in
  let n, eff_num, eff_den, over =
    List.fold_left
      (fun (n, en, ed, ov) m ->
        let wall = m.t1 -. m.t0 and busy = busy_of m in
        let par = float_of_int m.par in
        (n + 1, en +. busy, ed +. (wall *. par), ov +. (wall -. (busy /. par))))
      (0, 0.0, 0.0, 0.0) maps
  in
  if n = 0 then (0, 0.0, 0.0)
  else (n, eff_num /. eff_den, over /. float_of_int n)

(** Write every span as one JSON object per line. *)
let write (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"layer\": \"%s\", \"domain\": %d, \
         \"start\": %.6f, \"end\": %.6f, \"par\": %d}\n"
        s.id s.parent s.layer s.domain s.t0 s.t1 s.par)
    (all ());
  close_out oc
