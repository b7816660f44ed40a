(** The Moira-to-server update protocol (paper section 5.9).

    All updates are initiated by the DCM and built from atomic
    operations so that a reboot leaves a consistent server:

    - {b Transfer phase}: authenticate; send the (tar) data file to the
      recorded target path suffixed [.moira_update], with a checksum;
      send the installation instruction sequence; flush to disk.
    - {b Execution phase}: on a single command, the server decodes the
      staged file into its members and runs the staged script on them,
      which swaps files into place with atomic renames.
    - {b Confirm}: the exit status returns to the DCM, which records it.

    Crash points are exposed at each window the paper analyses
    ([xfer], [before_exec], [mid_install], [after_exec]) via
    {!Netsim.Host.arm_crash}.

    {b Delta pushes.}  After each successful execution the server keeps a
    durable copy of the installed members, one file each, under
    [target^".last.d/"] with an [_index] naming them.  A pushing DCM
    first asks for a manifest of per-member Adler-32 checksums of that
    base; members whose checksum already matches are not resent, and
    changed members are sent as prefix/suffix-trimmed patches against
    the base when the DCM still holds it.  The server rebuilds the member
    list from its base plus the deltas, verifies the whole-archive
    checksum, and stages the delta blob itself (marked [MOIRA-DELTA1]),
    never the full archive.  Execution decodes either kind of staged
    file into the same member list, so the install, and all of section
    5.9's atomicity analysis, are identical to a full transfer.  Any
    disagreement (missing base, stale patch base, checksum mismatch)
    makes the server answer MR_UPDATE_CHECKSUM and the DCM falls back to
    a full transfer within the same push. *)

(** {1 Server side} *)

(** {1 Wire opcodes}

    One request number per atomic operation; PROTOCOL.md's update table
    documents each, and [moira_lint --deep] checks both stay in sync
    with the dispatch below. *)

val op_xfer : int
val op_script : int
val op_flush : int
val op_exec : int
val op_manifest : int
val op_delta : int

type server

type script =
  staged:string -> members:(string * string) list -> (unit, string) result
(** An installation instruction sequence: receives the staged file's
    path on the local filesystem and the [(name, contents)] members the
    server decoded from it; performs the installs.  The member strings
    are the ones the server records as its base, so they must not be
    mutated. *)

val serve : ?token:string -> ?obs:Obs.t -> Netsim.Host.t -> server
(** Install the update service on a host.  [token] (default ["krb"])
    stands in for the Kerberos mutual authentication of section 5.9.2;
    requests bearing a different token are rejected.  [obs] (default
    {!Obs.default}) is the registry on which the server records its
    per-op install spans; giving each serving host its own registry
    puts it in its own lane of a merged cluster trace. *)

val register_script : server -> name:string -> script -> unit
(** Make a named script available for execution on this host. *)

val install_files :
  Netsim.Host.t -> dir:string -> ?after:(unit -> unit) -> unit -> script
(** The standard install script: for each member, save the existing
    file aside as [dir/<name>.moira_old], write the new contents to
    [dir/<name>.moira_update], flush, atomically rename over
    [dir/<name>]; then remove the staged file and run [after] (e.g.
    restart the server to reload its files).  A member whose live file
    is already physically the member's string is left alone.  Calls the
    [mid_install] crash point between member installs and
    [before_restart] before [after]. *)

val revert_files :
  Netsim.Host.t -> dir:string -> ?after:(unit -> unit) -> unit -> script
(** Execution-phase instruction 3 of section 5.9: "revert the file —
    identical to swapping in the new data file, but instead puts the old
    file back".  For every member named in the staged file whose
    [.moira_old] copy exists, atomically rename it back over the live
    file.  "May be useful in the case of an erroneous installation." *)

(** {1 Client side (the DCM)} *)

type failure =
  | Soft of int * string
      (** Expected, retryable: host down, timeout, checksum mismatch. *)
  | Hard of int * string
      (** Script failure or authentication refusal: operator attention. *)

type push_stats = {
  wire_bytes : int;
      (** Request and reply payload bytes exchanged during the push. *)
  archive_bytes : int;  (** Size of the full packed archive. *)
  members_total : int;
  members_full : int;  (** Members shipped with full contents. *)
  members_patched : int;  (** Members shipped as patches. *)
  members_kept : int;  (** Members the host already had (not resent). *)
  delta : bool;  (** Whether the delta path carried the transfer. *)
  op_retries : int;  (** Transport-level retries spent during the push. *)
  wasted_bytes : int;
      (** Request bytes of attempts that timed out and were re-sent. *)
}

val push :
  Netsim.Net.t -> src:string -> dst:string -> ?token:string ->
  ?base:(string * Sink.doc) list -> ?attempts:int ->
  ?parent_ctx:Obs.ctx ->
  target:string -> files:(string * Sink.doc) list -> script:string ->
  unit -> (push_stats, failure) result
(** Run the full protocol against host [dst]: transfer [files] to
    [target^".moira_update"] — by member deltas against the host's last
    installed archive when it has one, else as one full archive — stage
    [script], flush, execute, confirm.  [base] is the previous
    generation's files (if the caller kept them), used only to compute
    patches; correctness never depends on it, since every patch carries
    its base checksum and the server verifies the reconstructed
    archive.

    [attempts] (default 1) is the number of transport attempts per
    protocol operation: a call that fails at the network layer (timeout,
    lost reply, unreachable host) is re-sent up to [attempts - 1] more
    times before the push gives up with a [Soft] failure.  Every
    operation is idempotent under re-send — in particular the exec
    confirm carries the archive checksum, so a server that already
    installed the archive but whose reply was lost acknowledges the
    repeat instead of running the script twice.

    The push runs inside a [dcm.push] span on the net's registry;
    [parent_ctx] parents that span on an upstream trace (the newest
    commit the push serves), each transport attempt is a child
    [update.op] span with its outcome, and every op carries the push
    context on the wire so the serving host's install spans join the
    same trace. *)
