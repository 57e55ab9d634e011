(** Agent checkpoints.

    The paper's deployment story (Section 4.2) is train-once /
    infer-forever: the trained policy ships with the compiler and makes a
    single forward pass per loop.  These helpers persist a trained agent —
    embedding tables, trunk, heads, and action-space configuration — plus,
    since format v2, optional resumable training state
    ({!Train_state.t}), so a killed run can continue from its last
    periodic checkpoint.

    {b Format v3} (current): a marshalled [(magic, version)] header, the
    marshalled payload bytes, then a CRC32 integrity footer over those
    bytes.  v3 extends the training state with the sentinel rollback
    count ({!Train_state.ts_rollbacks}); v2 files (the same framing
    around the older state record) and v1 files (header + bare agent, no
    footer) are still loadable.  Files are written atomically through
    {!Fsio.atomic_replace} (temp file in the same directory + rename), so
    neither a crash nor an injected disk fault mid-write can ever leave a
    truncated file under the checkpoint's name — the previous checkpoint
    survives bit for bit.  The model is plain data — float arrays and
    configuration records — so OCaml's Marshal is safe here; the file is
    tied to the OCaml version like any Marshal artifact.

    Every load failure — wrong magic, unsupported version, truncated
    header {e or body}, CRC mismatch, unmarshalable payload — surfaces as
    {!Bad_checkpoint}; no raw [Failure]/[End_of_file] escapes.

    {!Lineage} layers self-healing on top: a ring of the last K
    checkpoints, each admitted only after a post-save health check, with
    quarantine ([.bad]) for files that fail it — the rollback targets for
    the training sentinels ({!Sentinel}). *)

let magic = "neurovec-agent"

let version = 3

exception Bad_checkpoint of string

type payload = {
  p_agent : Agent.t;
  p_state : Train_state.t option;  (** resumable training state, if any *)
}

(* the v2 payload, kept only to decode old files: Marshal is structural,
   so the pre-[ts_rollbacks] state record needs its own type *)
type v2_state = {
  v2_steps : int;
  v2_update : int;
  v2_history : Train_state.stats list;
  v2_optim : Nn.Optim.t;
}

type v2_payload = { v2_agent : Agent.t; v2_state : v2_state option }

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial)                              *)
(* ------------------------------------------------------------------ *)

(* built at module initialization, not lazily: serve's miss workers
   reach [crc32] through the store from several domains, and a [lazy]
   forced by two domains at once raises [CamlinternalLazy.Undefined] *)
let crc_table : int32 array =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 (s : string) : int32 =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          crc_table.(Int32.to_int
                       (Int32.logand
                          (Int32.logxor !c (Int32.of_int (Char.code ch)))
                          0xFFl))
          (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Save / load                                                          *)
(* ------------------------------------------------------------------ *)

(* the exact on-disk bytes: [Marshal.to_string v []] produces the same
   representation [output_value] would, composed here so the whole file
   can go through one guarded atomic write *)
let compose ?state (agent : Agent.t) : string =
  let body = Marshal.to_string { p_agent = agent; p_state = state } [] in
  Marshal.to_string (magic, version) []
  ^ Marshal.to_string body []
  ^ Marshal.to_string (crc32 body) []

(** Write [agent] (and optionally resumable training [state]) to [path],
    atomically: the bytes land in a temp file first and are renamed over
    [path] only once complete, so an interrupted save — crash or injected
    disk fault ({!Fsio.Disk_fault}) — leaves the previous checkpoint
    intact.  Missing parent directories are created, so a periodic
    checkpoint into a fresh [out/run1/ckpts] does not fail mid-training. *)
let save ?state (agent : Agent.t) (path : string) : unit =
  Fsio.mkdir_p (Filename.dirname path);
  Fsio.atomic_replace ~op:"checkpoint" path (compose ?state agent)

(** Load an agent and whatever training state the file carries.  Accepts
    v1 (agent only), v2 and v3; raises {!Bad_checkpoint} on any
    corruption. *)
let load_full (path : string) : Agent.t * Train_state.t option =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m, v =
        try (input_value ic : string * int)
        with _ -> raise (Bad_checkpoint "not an agent checkpoint")
      in
      if m <> magic then
        raise
          (Bad_checkpoint
             (Printf.sprintf "expected %s, found %s" magic m));
      let checked_body () =
        let body =
          try (input_value ic : string)
          with _ -> raise (Bad_checkpoint "truncated or corrupt body")
        in
        let stored =
          try (input_value ic : int32)
          with _ -> raise (Bad_checkpoint "missing integrity footer")
        in
        if crc32 body <> stored then
          raise (Bad_checkpoint "integrity check failed (CRC32 mismatch)");
        body
      in
      match v with
      | 1 ->
          (* v1: the agent record follows the header directly *)
          let agent =
            try (input_value ic : Agent.t)
            with _ -> raise (Bad_checkpoint "truncated or corrupt v1 body")
          in
          (agent, None)
      | 2 ->
          let body = checked_body () in
          let p =
            try (Marshal.from_string body 0 : v2_payload)
            with _ -> raise (Bad_checkpoint "corrupt payload")
          in
          ( p.v2_agent,
            Option.map
              (fun (s : v2_state) ->
                { Train_state.ts_steps = s.v2_steps;
                  ts_update = s.v2_update; ts_history = s.v2_history;
                  ts_optim = s.v2_optim; ts_rollbacks = 0 })
              p.v2_state )
      | 3 ->
          let body = checked_body () in
          let payload =
            try (Marshal.from_string body 0 : payload)
            with _ -> raise (Bad_checkpoint "corrupt payload")
          in
          (payload.p_agent, payload.p_state)
      | v ->
          raise
            (Bad_checkpoint
               (Printf.sprintf "unsupported %s version %d (latest is %d)"
                  magic v version)))

let load (path : string) : Agent.t = fst (load_full path)

(* ------------------------------------------------------------------ *)
(* Known-good lineage                                                   *)
(* ------------------------------------------------------------------ *)

(** Last-known-good checkpoint lineage.

    One checkpoint file is not a recovery story: the save that follows a
    {e numerically sick} update overwrites the only good state with a bad
    one.  The lineage keeps a ring of the last K generations —
    [path] (newest), [path.1], ... [path.K-1] (oldest) — and admits a
    new head only after a {b post-save health check}: the file must
    reload cleanly (magic, CRC, unmarshal) and carry finite weights,
    gradients and optimizer moments.  A file that fails the check — at
    save time or when {!newest_good} walks the ring during a rollback —
    is quarantined as [<file>.bad] (replacing any previous quarantine)
    for post-mortem, never silently deleted.

    Every lineage event is journaled to [<path>.lineage], one
    "."-terminated line per event ([S]ave, [B]ad-quarantine, [R]ollback,
    [G]ood-restore), deliberately {e outside} the injected-disk-fault
    scope: the audit trail that proves every rollback happened must
    survive the disk chaos it documents. *)
module Lineage = struct
  let ring_path (path : string) (i : int) : string =
    if i = 0 then path else Printf.sprintf "%s.%d" path i

  let bad_path (file : string) : string = file ^ ".bad"

  let log_path (path : string) : string = path ^ ".lineage"

  (* plain, best-effort append: not routed through Fsio by design *)
  let log_event (path : string) (fields : string list) : unit =
    try
      let oc =
        open_out_gen
          [ Open_append; Open_creat; Open_binary ]
          0o644 (log_path path)
      in
      output_string oc (String.concat "\t" (fields @ [ "." ]) ^ "\n");
      close_out_noerr oc
    with Sys_error _ -> ()

  (** Rollbacks journaled in [<path>.lineage] (the [R] records); torn
      lines (missing the "." terminator) are not counted. *)
  let logged_rollbacks (path : string) : int =
    match open_in_bin (log_path path) with
    | exception Sys_error _ -> 0
    | ic ->
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        let n = ref 0 in
        (try
           while true do
             let line = input_line ic in
             match String.split_on_char '\t' line with
             | "R" :: rest when rest <> [] && List.nth rest (List.length rest - 1) = "." ->
                 incr n
             | _ -> ()
           done
         with End_of_file -> ());
        !n

  (** Sweep stale [".tmp"] siblings of every ring slot (leftovers of an
      atomic write interrupted by a kill); returns how many were removed
      (also counted in {!Fsio.tmp_swept}). *)
  let sweep ?(keep = 3) (path : string) : int =
    let n = ref 0 in
    for i = 0 to max 0 (keep - 1) do
      if Fsio.sweep_tmp (ring_path path i) then incr n
    done;
    !n

  let healthy (agent : Agent.t) (state : Train_state.t option) : bool =
    Sentinel.params_finite (Agent.params agent)
    && (match state with
       | None -> true
       | Some st -> Sentinel.optim_finite st.Train_state.ts_optim)

  (** Reload [file] and prove it whole and finite. *)
  let healthy_file (file : string) : bool =
    match load_full file with
    | exception Bad_checkpoint _ -> false
    | agent, state -> healthy agent state

  let quarantine (path : string) (file : string) (reason : string) : unit =
    (try Sys.remove (bad_path file) with Sys_error _ -> ());
    (try Sys.rename file (bad_path file) with Sys_error _ -> ());
    log_event path [ "B"; Filename.basename file; String.escaped reason ]

  (* copy the current head into slot 1 (shifting older slots up) so the
     ring keeps the previous generation.  Copies, not renames: if the
     new head's save then fails, [path] must still hold the last good
     checkpoint. *)
  let retire_head (path : string) ~(keep : int) : unit =
    if keep > 1 && Sys.file_exists path then begin
      for i = keep - 2 downto 1 do
        let src = ring_path path i in
        if Sys.file_exists src then (
          try Sys.rename src (ring_path path (i + 1)) with Sys_error _ -> ())
      done;
      try
        let ic = open_in_bin path in
        let bytes =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let oc = open_out_bin (ring_path path 1) in
        output_string oc bytes;
        close_out oc
      with Sys_error _ | End_of_file -> ()
    end

  (** Save a new lineage head: retire the current head into the ring,
      write the new checkpoint (atomically, disk faults included), then
      run the post-save health check.  A head that fails the check is
      quarantined as [.bad] and {!Bad_checkpoint} is raised — the
      previous generation, now in [path.1], remains the newest good.
      Raises {!Fsio.Disk_fault} (head untouched) under an injected disk
      fault. *)
  let save ?(keep = 3) ?state (agent : Agent.t) (path : string) : unit =
    retire_head path ~keep;
    save ?state agent path;
    if not (healthy_file path) then begin
      quarantine path path "failed post-save health check";
      raise
        (Bad_checkpoint
           (Printf.sprintf "%s: failed post-save health check" path))
    end;
    match state with
    | Some (st : Train_state.t) ->
        log_event path
          [ "S"; string_of_int st.Train_state.ts_update;
            string_of_int st.ts_steps; string_of_int st.ts_rollbacks ]
    | None -> log_event path [ "S"; "-"; "-"; "-" ]

  (** Walk the ring newest-first and return the first checkpoint that
      loads and passes the health check, quarantining every sick file
      passed over.  [None] when the whole lineage is gone or bad. *)
  let newest_good ?(keep = 3) (path : string) :
      (string * Agent.t * Train_state.t option) option =
    let rec go i =
      if i >= max 1 keep then None
      else
        let file = ring_path path i in
        if not (Sys.file_exists file) then go (i + 1)
        else
          match load_full file with
          | exception Bad_checkpoint why ->
              quarantine path file why;
              go (i + 1)
          | agent, state ->
              if healthy agent state then begin
                log_event path [ "G"; Filename.basename file ];
                Some (file, agent, state)
              end
              else begin
                quarantine path file "failed health check";
                go (i + 1)
              end
    in
    go 0
end
