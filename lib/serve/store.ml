(** Crash-safe on-disk tier of the serve daemon's two-tier cache.

    The store is a content-addressed append-only log mapping request keys
    (program content hash + pipeline options + kernel + model fingerprint)
    to the exact reply bytes the daemon computed — so a restarted daemon
    answers warm requests {e bit-identically} to the cold run that
    populated it, without a forward pass or a compile.

    {b Layout.}  A text header line identifies the format, then records:

    {v
    "# neurovec-store 1\n"
    'R' u32 klen  u32 vlen  key-bytes  value-bytes  u32 crc32(key ^ value)
    v}

    (all integers big-endian; CRC32 is the checkpoint-v2 polynomial,
    {!Rl.Checkpoint.crc32}).

    {b Corruption contract.}  Loading never trusts a record it cannot
    prove whole:

    - A record whose CRC does not match is {e skipped} — the length
      fields still frame it, so later records survive a flipped byte.
      Each reject is counted ({!Neurovec.Stats.store_crc_rejects}).
    - A torn tail — short read, unknown tag, or a length field that
      cannot be a record — ends the load: everything before it is kept,
      the tail is dropped.  This is the reward-journal torn-line rule
      applied to binary framing: a crash mid-append loses at most the
      record being appended.
    - If anything was rejected or torn, the damaged file is {e
      quarantined} (renamed to [<path>.quarantined], replacing any
      previous quarantine) and the surviving entries are rewritten
      through the checkpoint-v2 atomic temp+rename path, so the next
      load sees a clean log and the evidence is preserved for autopsy.

    Appends are first-wins (matching the in-memory caches: a key is
    computed once, re-puts are ignored) and flushed eagerly, so a SIGKILL
    loses at most the in-flight record.  All operations are mutex-guarded;
    the daemon's session threads, miss workers and drain may touch the
    store from different threads and domains. *)

let header = "# neurovec-store 1\n"

type t = {
  s_path : string;
  s_lock : Mutex.t;
  s_tbl : (string, string) Hashtbl.t;
  mutable s_oc : out_channel option;  (** append channel, open lazily *)
  mutable s_loaded : int;  (** intact records recovered at open *)
  mutable s_rejected : int;  (** CRC rejects at open *)
  mutable s_torn : bool;  (** load ended at a torn tail *)
}

let u32_bytes (n : int) : string =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let crc_bytes (key : string) (value : string) : string =
  let c = Rl.Checkpoint.crc32 (key ^ value) in
  let b = Bytes.create 4 in
  let u = Int32.to_int (Int32.shift_right_logical c 24) land 0xff in
  Bytes.set b 0 (Char.chr u);
  Bytes.set b 1
    (Char.chr (Int32.to_int (Int32.shift_right_logical c 16) land 0xff));
  Bytes.set b 2
    (Char.chr (Int32.to_int (Int32.shift_right_logical c 8) land 0xff));
  Bytes.set b 3 (Char.chr (Int32.to_int c land 0xff));
  Bytes.to_string b

let record_bytes (key : string) (value : string) : string =
  String.concat ""
    [ "R"; u32_bytes (String.length key); u32_bytes (String.length value);
      key; value; crc_bytes key value ]

(* bounds on a single field, to reject lengths that cannot be real
   records (a torn length field reads as garbage) *)
let max_field = Protocol.max_frame

(* ------------------------------------------------------------------ *)
(* Load + recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* read the log at [path] into [tbl]; returns (records, crc_rejects,
   torn).  Never raises on file content — every malformation maps to a
   skip or a stop. *)
let load_into (tbl : (string, string) Hashtbl.t) (path : string) :
    int * int * bool =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let ok = ref 0 and rejected = ref 0 and torn = ref false in
  (match really_input_string ic (String.length header) with
  | h when h = header ->
      let read_u32 () =
        let b0 = input_char ic in
        let b1 = input_char ic in
        let b2 = input_char ic in
        let b3 = input_char ic in
        (Char.code b0 lsl 24) lor (Char.code b1 lsl 16)
        lor (Char.code b2 lsl 8) lor Char.code b3
      in
      let rec records () =
        match input_char ic with
        | exception End_of_file -> ()  (* clean end of log *)
        | 'R' -> (
            match
              let klen = read_u32 () in
              let vlen = read_u32 () in
              if klen < 0 || klen > max_field || vlen < 0 || vlen > max_field
              then raise End_of_file;  (* not a length: torn tail *)
              let key = really_input_string ic klen in
              let value = really_input_string ic vlen in
              let crc = really_input_string ic 4 in
              (key, value, crc)
            with
            | exception End_of_file -> torn := true
            | key, value, crc ->
                if crc = crc_bytes key value then begin
                  (* first-wins, matching the append-side contract *)
                  if not (Hashtbl.mem tbl key) then
                    Hashtbl.replace tbl key value;
                  incr ok
                end
                else begin
                  incr rejected;
                  Counter.incr Neurovec.Stats.store_crc_rejects
                end;
                records ())
        | _ -> torn := true  (* unknown tag: framing lost, stop *)
      in
      records ()
  | _ -> torn := true  (* wrong or damaged header: keep nothing *)
  | exception End_of_file -> torn := true);
  (!ok, !rejected, !torn)

(* quarantine the damaged log and atomically rewrite the survivors, so
   the next open is clean and the evidence is preserved.  The rewrite is
   staged to a temp file (through the disk-fault layer) {e before} the
   damaged log is moved aside: an injected fault fails closed with the
   typed [Fsio.Disk_fault], the damaged-but-loadable log still in place
   for the retry. *)
let compact (t : t) : unit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Hashtbl.iter (fun k v -> Buffer.add_string buf (record_bytes k v)) t.s_tbl;
  let tmp = t.s_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try Fsio.output ~op:"store" ~path:t.s_path oc (Buffer.contents buf)
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  let quarantine = t.s_path ^ ".quarantined" in
  (try Sys.remove quarantine with Sys_error _ -> ());
  (try Sys.rename t.s_path quarantine
   with Sys_error _ -> () (* nothing to preserve *));
  Sys.rename tmp t.s_path

(** Open (creating if missing) the store at [path], recovering whatever
    the last process left: intact records load, corrupt ones are counted
    and dropped, and a damaged log is quarantined + compacted before the
    store accepts traffic. *)
let open_store (path : string) : t =
  Neurovec.Supervisor.mkdir_p (Filename.dirname path);
  (* a stale .tmp is a compaction interrupted by a kill: dead bytes,
     swept before anything reads — never replayed *)
  ignore (Fsio.sweep_tmp path);
  let t =
    { s_path = path; s_lock = Mutex.create (); s_tbl = Hashtbl.create 256;
      s_oc = None; s_loaded = 0; s_rejected = 0; s_torn = false }
  in
  if Sys.file_exists path then begin
    let ok, rejected, torn = load_into t.s_tbl path in
    t.s_loaded <- ok;
    t.s_rejected <- rejected;
    t.s_torn <- torn;
    if rejected > 0 || torn then compact t
  end
  else begin
    (* write the header through the atomic path so a half-created store
       never exists *)
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc header;
    close_out oc;
    Sys.rename tmp path
  end;
  t

let append_channel (t : t) : out_channel =
  match t.s_oc with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.s_path
      in
      t.s_oc <- Some oc;
      oc

(* ------------------------------------------------------------------ *)
(* Traffic                                                              *)
(* ------------------------------------------------------------------ *)

(** Cached reply bytes for [key], uncounted: for callers that count their
    lookups themselves (the daemon counts one per admitted request). *)
let find (t : t) (key : string) : string option =
  Mutex.protect t.s_lock (fun () -> Hashtbl.find_opt t.s_tbl key)

(** Cached reply bytes for [key], counting the hit or miss in {!Stats}. *)
let get (t : t) (key : string) : string option =
  let r = find t key in
  (match r with
  | Some _ -> Counter.incr Neurovec.Stats.store_hits
  | None -> Counter.incr Neurovec.Stats.store_misses);
  r

(** Record [key -> value], appending and flushing one log record.
    First-wins: a key already present is left untouched (replies are pure
    functions of the key, so a re-put can only be the same bytes).

    The append goes through the disk-fault layer and fails closed: on an
    injected (or real) fault the log is truncated back to its pre-append
    length — a short write must not leave a torn record framing later
    appends out of reach — and the channel is dropped so the next put
    reopens and retries.  The in-memory tier still serves the value; only
    its durability is lost. *)
let put (t : t) (key : string) (value : string) : unit =
  Mutex.protect t.s_lock (fun () ->
      if not (Hashtbl.mem t.s_tbl key) then begin
        Hashtbl.replace t.s_tbl key value;
        let oc = append_channel t in
        (* every append is flushed, so file length = true append offset *)
        let before =
          try Some (Unix.stat t.s_path).Unix.st_size
          with Unix.Unix_error _ -> None
        in
        match Fsio.output ~op:"store" ~path:t.s_path oc (record_bytes key value) with
        | () -> ()
        | exception Fsio.Disk_fault _ ->
            Counter.incr Fsio.write_errors;
            close_out_noerr oc;
            t.s_oc <- None;
            (match before with
            | Some len -> ignore (Fsio.truncate_back t.s_path len)
            | None -> ())
      end)

let length (t : t) : int =
  Mutex.protect t.s_lock (fun () -> Hashtbl.length t.s_tbl)

(** Records recovered intact / CRC-rejected / torn-tail flag from the
    open-time load (for the daemon's startup banner and the tests). *)
let recovery (t : t) : int * int * bool =
  (t.s_loaded, t.s_rejected, t.s_torn)

let flush (t : t) : unit =
  Mutex.protect t.s_lock (fun () ->
      match t.s_oc with Some oc -> flush oc | None -> ())

let close (t : t) : unit =
  Mutex.protect t.s_lock (fun () ->
      (match t.s_oc with Some oc -> close_out_noerr oc | None -> ());
      t.s_oc <- None)
