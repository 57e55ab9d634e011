(** Durable-write primitives with deterministic disk-fault injection.

    Every durable writer in the system — agent checkpoints, the
    write-ahead reward journal, the serve daemon's on-disk store — funnels
    its bytes through this module, so a single injection point can
    simulate the disk failing under all of them: ENOSPC ([Disk_full]), an
    I/O error ([Disk_err]), and the nastiest of the three, a {e short
    write} that leaves a torn prefix of the record on disk before the
    error surfaces.  The writers' recovery contracts (atomic temp+rename,
    torn-tail truncation, CRC quarantine) are then testable without a
    real full disk.

    This library sits {e below} the fault policy: it neither hashes seeds
    nor parses specs.  The policy side ({!Faults} in the core library)
    installs an injector — a pure function of (operation, path, attempt
    index) — via {!set_injector}; with no injector installed every
    primitive is a plain write.  Keying by attempt index makes injected
    faults transient the way real ENOSPC usually is: the same logical
    write can fail on its first attempt and succeed on a retry, and
    whether it does is reproducible at any pool size.

    The module's counts ({!injected}, {!write_errors}, {!tmp_swept})
    live in the process-wide {!Counter} registry. *)

type fault_kind =
  | Disk_full  (** ENOSPC: the write fails before any byte lands *)
  | Disk_err  (** EIO-style failure; no bytes land *)
  | Short_write
      (** a prefix of the payload lands on disk, then the error surfaces
          — the case atomic-rename and torn-tail recovery exist for *)

let fault_kind_name = function
  | Disk_full -> "disk_full"
  | Disk_err -> "disk_err"
  | Short_write -> "short_write"

exception
  Disk_fault of {
    op : string;  (** logical operation, e.g. "checkpoint", "journal" *)
    path : string;
    kind : fault_kind;
  }

let () =
  Printexc.register_printer (function
    | Disk_fault { op; path; kind } ->
        Some
          (Printf.sprintf "Fsio.Disk_fault(%s on %s during %s)"
             (fault_kind_name kind) path op)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Injection plumbing                                                   *)
(* ------------------------------------------------------------------ *)

type injector = op:string -> path:string -> index:int -> fault_kind option

let lock = Mutex.create ()

let injector : injector option ref = ref None

(* attempt index per (op, basename): the injector sees how many times
   this logical write has been tried, so faults can be transient *)
let attempts : (string, int) Hashtbl.t = Hashtbl.create 16

(** Install the fault policy.  [None] (the default) disables injection
    and resets the attempt counters, so test scopes start clean. *)
let set_injector (f : injector option) : unit =
  Mutex.protect lock (fun () ->
      injector := f;
      Hashtbl.reset attempts)

(** Faults injected, and stale temp files swept. *)
let injected = Counter.make "fsio.injected"
let tmp_swept = Counter.make "fsio.tmp_swept"

(** Disk errors absorbed: a writer bumps it when it caught a [Disk_fault]
    (or a real [Sys_error]) and degraded or recovered. *)
let write_errors = Counter.make "fsio.write_errors"

(* the fault (if any) for this attempt of (op, path); bumps the attempt
   counter as a side effect *)
let consult ~(op : string) ~(path : string) : fault_kind option =
  match !injector with
  | None -> None
  | Some f ->
      let decision =
        Mutex.protect lock (fun () ->
            match !injector with
            | None -> None
            | Some _ ->
                let key = op ^ "\x00" ^ Filename.basename path in
                let index =
                  Option.value ~default:0 (Hashtbl.find_opt attempts key)
                in
                Hashtbl.replace attempts key (index + 1);
                f ~op ~path ~index)
      in
      (match decision with
      | Some _ -> Counter.incr injected
      | None -> ());
      decision

(* ------------------------------------------------------------------ *)
(* Guarded primitives                                                   *)
(* ------------------------------------------------------------------ *)

(** Append [data] to the open channel [oc] and flush.  Under an injected
    fault: [Disk_full]/[Disk_err] fail before any byte is written;
    [Short_write] writes (and flushes) a strict prefix first, so the
    caller's torn-record recovery actually has a torn record to recover
    from.  Raises {!Disk_fault}; the channel stays usable. *)
let output ~(op : string) ~(path : string) (oc : out_channel)
    (data : string) : unit =
  match consult ~op ~path with
  | None ->
      output_string oc data;
      flush oc
  | Some Short_write when String.length data > 1 ->
      output_string oc (String.sub data 0 (String.length data / 2));
      flush oc;
      raise (Disk_fault { op; path; kind = Short_write })
  | Some kind -> raise (Disk_fault { op; path; kind })

(** Truncate the file at [path] back to [len] bytes — the writer-side
    undo for a torn append.  Best-effort: returns whether the truncate
    succeeded (a file that vanished counts as success). *)
let truncate_back (path : string) (len : int) : bool =
  match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.ftruncate fd len with
          | () -> true
          | exception Unix.Unix_error _ -> false)

(** Replace [path] with [data] atomically: the bytes land in
    [path ^ ".tmp"] first and are renamed over [path] only once complete.
    Under an injected fault the temp file is removed and {!Disk_fault}
    raised — [path] is never touched, so the previous version survives
    bit for bit. *)
let atomic_replace ~(op : string) (path : string) (data : string) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output ~op ~path oc data
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

(** Remove a stale [".tmp"] sibling left by an interrupted atomic write
    next to [path]; counted in {!tmp_swept}.  Never touches [path]
    itself, and never raises. *)
let sweep_tmp (path : string) : bool =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then (
    match Sys.remove tmp with
    | () ->
        Counter.incr tmp_swept;
        true
    | exception Sys_error _ -> false)
  else false
