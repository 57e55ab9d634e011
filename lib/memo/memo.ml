(** Content-addressed memo tables.

    Every process-global cache in the stack — the front end's artifacts,
    the pipeline's verdicts and points, the cycle model's per-loop costs,
    the VM's compiled code and the validator's scalar runs — maps a
    content key (a digest-prefixed string) to a pure function of that
    content.  This module is the one implementation of such a table: how
    it is sharded, bounded, counted and cleared is decided here and
    nowhere else.

    {b Domain safety.}  A table has {!n_shards} shards, each a [Hashtbl]
    behind its own mutex, so lookups of different keys from different
    domains rarely contend.  On a miss the value is computed {e outside}
    every lock; two domains racing on one cold key may both compute it,
    and the first to commit wins — both callers get that value.  Values
    are pure functions of their keys, so the race is unobservable: a
    [--jobs N] run caches exactly the bits a [--jobs 1] run caches.  A
    compute that raises caches nothing.

    {b Bounded.}  A table holds at most [cap] entries in total and evicts
    the oldest first.  Commits, evictions and clears serialize on one
    per-table lock that also guards the insertion-order queue, so the cap
    is exact; hits take only their shard's lock.  Eviction is invisible
    except in cost: an evicted entry is recomputed bit-identically on its
    next lookup.

    {b Counted and registered.}  Each table counts hits, misses and
    evictions in {!Counter}s named [<table>.hits], [<table>.misses] and
    [<table>.evictions], and registers under its name at creation, so one
    {!clear_all} and one {!all} cover every table in the process, and
    [Counter.reset_all] zeroes their counts with every other. *)

let n_shards = 16

type stats = {
  name : string;
  size : int;
  cap : int;
  hits : int;
  misses : int;
  evictions : int;
}

type 'a shard = { lock : Mutex.t; tbl : (string, 'a) Hashtbl.t }

type 'a t = {
  t_name : string;
  shards : 'a shard array;
  commit : Mutex.t;  (** guards [order], [t_cap] and every shard write *)
  order : string Queue.t;  (** live keys, oldest first *)
  mutable t_cap : int;
  c_hits : Counter.t;
  c_misses : Counter.t;
  c_evictions : Counter.t;
}

(** The shard of [key]: FNV-1a over at most its first 16 bytes.  Every
    key in the stack starts with a digest (hex or raw), so a bounded
    prefix spreads keys evenly while the cost stays flat however long the
    key is (timing keys are whole marshaled loop bodies). *)
let shard_index (key : string) : int =
  let h = ref 0x811c9dc5 in
  for i = 0 to Int.min 16 (String.length key) - 1 do
    h := (!h lxor Char.code (String.unsafe_get key i)) * 0x01000193
  done;
  (!h lsr 24) land (n_shards - 1)

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

type packed = Pack : 'a t -> packed

let registry_lock = Mutex.create ()
let registry : packed list ref = ref []
let tables () : packed list = Mutex.protect registry_lock (fun () -> !registry)

(** A new empty table holding at most [cap] entries (at least 1),
    registered under [name], which must be unique in the process. *)
let create ~(name : string) ~(cap : int) : 'a t =
  Mutex.protect registry_lock (fun () ->
      if List.exists (fun (Pack u) -> u.t_name = name) !registry then
        invalid_arg ("Memo.create: duplicate table " ^ name);
      let counter what = Counter.make (name ^ "." ^ what) in
      let t =
        { t_name = name;
          shards =
            Array.init n_shards (fun _ ->
                { lock = Mutex.create (); tbl = Hashtbl.create 64 });
          commit = Mutex.create (); order = Queue.create ();
          t_cap = max 1 cap; c_hits = counter "hits";
          c_misses = counter "misses"; c_evictions = counter "evictions" }
      in
      registry := Pack t :: !registry;
      t)

(** Table capacity from the environment variable [var] (total entries);
    [default] when unset, and a warning plus [default] when it is not a
    positive integer. *)
let cap_of_env (var : string) ~(default : int) : int =
  match Sys.getenv_opt var with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          Printf.eprintf
            "neurovec: unparseable %s=%S, using the default %d\n%!" var s
            default;
          default)

(* ------------------------------------------------------------------ *)
(* One table                                                            *)
(* ------------------------------------------------------------------ *)

(* commit lock held *)
let evict_over_cap (t : 'a t) : unit =
  while Queue.length t.order > t.t_cap do
    let oldest = Queue.pop t.order in
    let sh = t.shards.(shard_index oldest) in
    Mutex.protect sh.lock (fun () -> Hashtbl.remove sh.tbl oldest);
    Counter.incr t.c_evictions
  done

(** The value cached under [key], computing it with [compute] (outside
    every lock) on a miss.  Racing misses keep the first committed value
    and every caller gets it; an exception from [compute] propagates and
    nothing is cached. *)
let find_or_add (t : 'a t) (key : string) (compute : unit -> 'a) : 'a =
  let sh = t.shards.(shard_index key) in
  match Mutex.protect sh.lock (fun () -> Hashtbl.find_opt sh.tbl key) with
  | Some v ->
      Counter.incr t.c_hits;
      v
  | None ->
      Counter.incr t.c_misses;
      let v = compute () in
      Mutex.protect t.commit (fun () ->
          if t.t_cap = 0 then v
          else
            match
              Mutex.protect sh.lock (fun () ->
                  match Hashtbl.find_opt sh.tbl key with
                  | Some _ as winner -> winner
                  | None ->
                      Hashtbl.add sh.tbl key v;
                      None)
            with
            | Some winner -> winner
            | None ->
                Queue.push key t.order;
                evict_over_cap t;
                v)

let clear (t : 'a t) : unit =
  Mutex.protect t.commit (fun () ->
      Array.iter
        (fun sh -> Mutex.protect sh.lock (fun () -> Hashtbl.reset sh.tbl))
        t.shards;
      Queue.clear t.order)

let stats (t : 'a t) : stats =
  Mutex.protect t.commit (fun () ->
      { name = t.t_name; size = Queue.length t.order; cap = t.t_cap;
        hits = Counter.get t.c_hits; misses = Counter.get t.c_misses;
        evictions = Counter.get t.c_evictions })

(* ------------------------------------------------------------------ *)
(* Every table                                                          *)
(* ------------------------------------------------------------------ *)

(** Statistics of every registered table, sorted by name. *)
let all () : stats list =
  List.sort
    (fun a b -> compare a.name b.name)
    (List.map (fun (Pack t) -> stats t) (tables ()))

(** Set the capacity of the table named [name], evicting down to it at
    once.  Capacity 0 keeps nothing: every lookup computes and counts a
    miss. *)
let set_capacity (name : string) (cap : int) : unit =
  match List.find_opt (fun (Pack t) -> t.t_name = name) (tables ()) with
  | None -> invalid_arg ("Memo.set_capacity: no table " ^ name)
  | Some (Pack t) ->
      Mutex.protect t.commit (fun () ->
          t.t_cap <- max 0 cap;
          evict_over_cap t)

(** Empty every registered table (counters are kept). *)
let clear_all () : unit = List.iter (fun (Pack t) -> clear t) (tables ())
