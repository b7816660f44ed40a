(* Ops ride on the GDB wire framing with conn 0; each request's first
   argument is the auth token. *)
let op_xfer = 32
let op_script = 33
let op_flush = 34
let op_exec = 35
let op_manifest = 36
let op_delta = 37

let op_slug op =
  if op = op_xfer then "xfer"
  else if op = op_script then "script"
  else if op = op_flush then "flush"
  else if op = op_exec then "exec"
  else if op = op_manifest then "manifest"
  else if op = op_delta then "delta"
  else string_of_int op

let service_name = "moira_update"
let staged_suffix = ".moira_update"
let last_dir_suffix = ".last.d"
let script_staging = "/tmp/moira_inst"

(* A delta push stages the (small) delta blob itself rather than the
   reconstructed archive: materializing the full archive string was the
   one remaining O(archive) step on the delta path.  The marker keeps
   the staged file self-describing for the exec/install side. *)
let delta_marker = "MOIRA-DELTA1\n"

let is_delta_staged data =
  String.length data >= String.length delta_marker
  && String.sub data 0 (String.length delta_marker) = delta_marker

let delta_blob data =
  String.sub data
    (String.length delta_marker)
    (String.length data - String.length delta_marker)

type script =
  staged:string -> members:(string * string) list -> (unit, string) result

(* Per-target digest of the last installed members.  [be_token] is the
   physical string the durable base was read from — the [_index] of the
   member-grain [target ^ ".last.d"] directory, or a just-transferred
   archive: Vfs hands stored strings back by reference, so pointer
   comparisons tell us the cached member list and per-member checksums
   are current, and the manifest / delta-verify ops run in
   O(members + changed bytes) instead of re-scanning every member every
   cycle.  It earns its place: with its lookups disabled, e2ebench
   [campus_day] [ops_per_probe] fell to 7.74-8.24 from 9.25-9.79, and
   with a single decode per push to 8.75-9.23 from 10.05-10.65 (seeds
   1-3, 2-vCPU VM; EXPERIMENTS.md, "Push stack"). *)
type base_entry = {
  be_token : string;
  be_members : (string * string * int) list;  (* name, contents, adler *)
}

type server = {
  host : Netsim.Host.t;
  token : string;
  obs : Obs.t;  (* span lane for this serving host *)
  scripts : (string, script) Hashtbl.t;
  base_cache : (string, base_entry) Hashtbl.t;  (* keyed by target *)
}

let reply code tuples =
  Gdb.Wire.encode_reply
    { Gdb.Wire.rversion = Gdb.Wire.protocol_version; code; tuples }

let doc_cksum contents = Checksum.to_hex (Checksum.adler32_doc contents)

(* A member delta: 'K' keep the base member verbatim, 'F' full new
   contents, 'P' patch — common prefix/suffix trim against the base
   member, whose checksum is carried so a stale base is detected.  Both
   sides are chunked docs and the trims compare chunk-wise, so only the
   changed middle is ever materialized. *)
let patch_encode ~base contents =
  let lb = Sink.length base and lc = Sink.length contents in
  let p = Sink.common_prefix base contents in
  let s = Sink.common_suffix ~limit:(min lb lc - p) base contents in
  Printf.sprintf "P%d %d %s\n%s" p s (doc_cksum base)
    (Sink.sub contents p (lc - p - s))

(* [base_ck] is the base member's Adler-32, which the server already
   holds, so applying a patch scans only the new member. *)
let patch_apply ~base ~base_ck enc =
  match String.index_opt enc '\n' with
  | None -> Error "malformed patch"
  | Some nl -> (
      let header = String.sub enc 1 (nl - 1) in
      let middle = String.sub enc (nl + 1) (String.length enc - nl - 1) in
      match String.split_on_char ' ' header with
      | [ p; s; bck ] -> (
          match (int_of_string_opt p, int_of_string_opt s) with
          | Some p, Some s
            when p >= 0 && s >= 0
                 && p + s <= String.length base
                 && Checksum.to_hex base_ck = bck ->
              Ok
                (String.sub base 0 p ^ middle
                ^ String.sub base (String.length base - s) s)
          | _ -> Error "patch base mismatch")
      | _ -> Error "malformed patch")

(* Rebuild the (name, contents, adler) list a member delta describes
   against the base members.  Kept members share the base member's
   string and checksum physically, so only changed members' bytes are
   materialized or scanned. *)
let decode_delta ~base entries =
  let base_member name =
    match List.find_opt (fun (n, _, _) -> n = name) base with
    | Some (_, c, ck) -> Ok (c, ck)
    | None -> Error ("no base member " ^ name)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, enc) :: rest -> (
        let changed c = go ((name, c, Checksum.adler32 c) :: acc) rest in
        if String.length enc = 0 then Error ("empty delta entry " ^ name)
        else
          match enc.[0] with
          | 'K' -> (
              match base_member name with
              | Ok (c, ck) -> go ((name, c, ck) :: acc) rest
              | Error e -> Error e)
          | 'F' -> changed (String.sub enc 1 (String.length enc - 1))
          | 'P' -> (
              match base_member name with
              | Error e -> Error e
              | Ok (base, base_ck) -> (
                  match patch_apply ~base ~base_ck enc with
                  | Ok c -> changed c
                  | Error e -> Error (e ^ " for " ^ name)))
          | _ -> Error ("bad delta entry " ^ name))
  in
  go [] entries

let with_adlers = List.map (fun (n, c) -> (n, c, Checksum.adler32 c))

(* The durable base members, without checksums: the member-grain
   [.last.d] directory, whose [_index] names the members. *)
let read_base_plain fs target =
  let dir = target ^ last_dir_suffix in
  match Netsim.Vfs.read fs ~path:(dir ^ "/_index") with
  | None -> None
  | Some index ->
      let names =
        List.filter (fun s -> s <> "") (String.split_on_char '\n' index)
      in
      let rec read_all acc = function
        | [] -> Some (index, List.rev acc)
        | n :: rest -> (
            match Netsim.Vfs.read fs ~path:(dir ^ "/" ^ n) with
            | None -> None (* torn base: treat as absent *)
            | Some c -> read_all ((n, c) :: acc) rest)
      in
      read_all [] names

let read_last_entry t fs target =
  match read_base_plain fs target with
  | None -> None
  | Some (token, members) -> (
      match Hashtbl.find_opt t.base_cache target with
      | Some e
        when e.be_token == token
             && List.compare_lengths e.be_members members = 0
             && List.for_all2
                  (fun (n, c, _) (n', c') -> n = n' && c == c')
                  e.be_members members ->
          Some e
      | _ ->
          let e = { be_token = token; be_members = with_adlers members } in
          Hashtbl.replace t.base_cache target e;
          Some e)

(* The adler of the archive [Tarlike.pack] would produce for these
   members, streamed from the per-member checksums — the wire checksum
   the DCM confirms on exec, computed in O(members). *)
let stream_cksum member_adlers =
  let st = Checksum.stream_start () in
  List.iter
    (fun (name, contents, ck) ->
      Checksum.stream_feed st (string_of_int (String.length name));
      Checksum.stream_feed st " ";
      Checksum.stream_feed st (string_of_int (String.length contents));
      Checksum.stream_feed st "\n";
      Checksum.stream_feed st name;
      Checksum.stream_absorb st ck ~len:(String.length contents))
    member_adlers;
  Checksum.to_hex (Checksum.stream_value st)

(* The member list a delta blob describes, against the durable base. *)
let reconstruct t fs target blob =
  match Tarlike.unpack blob with
  | Error e -> Error e
  | Ok entries ->
      let base =
        match read_last_entry t fs target with
        | None -> []
        | Some e -> e.be_members
      in
      decode_delta ~base entries

(* Advance the durable base to [member_adlers]: write only members whose
   contents are not already the physically-identical string, drop
   members that disappeared, and refresh [_index].
   O(changed members + member count). *)
let write_base t fs target member_adlers =
  let dir = target ^ last_dir_suffix in
  let old_names =
    match Netsim.Vfs.read fs ~path:(dir ^ "/_index") with
    | None -> []
    | Some index ->
        List.filter (fun s -> s <> "") (String.split_on_char '\n' index)
  in
  let names = List.map (fun (n, _, _) -> n) member_adlers in
  List.iter
    (fun (n, c, _) ->
      let path = dir ^ "/" ^ n in
      match Netsim.Vfs.read fs ~path with
      | Some existing when existing == c -> ()
      | _ -> Netsim.Vfs.write fs ~path c)
    member_adlers;
  List.iter
    (fun n ->
      if not (List.mem n names) then
        Netsim.Vfs.remove fs ~path:(dir ^ "/" ^ n))
    old_names;
  let index = String.concat "\n" names in
  Netsim.Vfs.write fs ~path:(dir ^ "/_index") index;
  Hashtbl.replace t.base_cache target
    { be_token = index; be_members = member_adlers }

(* The members a staged file describes, with their checksums — the one
   decode of a staged push.  A full archive resolves through the entry
   the xfer op primed for that very string; a delta blob is rebuilt
   against the durable base.  EXEC hands the same list to the script and
   to [write_base], so installed files and base members are physically
   the same strings and the next push's kept members are recognised by
   pointer. *)
let staged_members t fs target = function
  | None -> Error ("no staged archive at " ^ target ^ staged_suffix)
  | Some sdata when is_delta_staged sdata ->
      reconstruct t fs target (delta_blob sdata)
  | Some sdata -> (
      match Hashtbl.find_opt t.base_cache target with
      | Some e when e.be_token == sdata -> Ok e.be_members
      | _ -> Result.map with_adlers (Tarlike.unpack sdata))

let handle t payload =
  match Gdb.Wire.decode_request payload with
  | Error _ -> reply Gdb.Gdb_err.bad_frame []
  | Ok req -> (
      match req.Gdb.Wire.args with
      | token :: args when token = t.token ->
          (* Install-side span, parented on the DCM's push span when the
             request carries a context — the serving-host end of the
             commit-to-serving trace. *)
          Obs.with_span t.obs
            ?parent_ctx:(Obs.ctx_of_string req.Gdb.Wire.ctx)
            ~attrs:[ ("op", op_slug req.Gdb.Wire.op) ]
            ("update." ^ op_slug req.Gdb.Wire.op)
          @@ fun () ->
          let fs = Netsim.Host.fs t.host in
          if req.op = op_xfer then begin
            match args with
            | [ target; data; cksum ] ->
                if not (Checksum.verify ~data ~checksum:cksum) then
                  reply Moira.Mr_err.update_checksum []
                else begin
                  Netsim.Vfs.write fs ~path:(target ^ staged_suffix) data;
                  (* digest the archive now, while the full transfer is
                     already paying O(archive): the first manifest or
                     delta after the install then validates the cache by
                     pointer instead of re-scanning the archive inside
                     an incremental cycle *)
                  (match Tarlike.unpack data with
                  | Error _ -> ()
                  | Ok members ->
                      Hashtbl.replace t.base_cache target
                        { be_token = data; be_members = with_adlers members });
                  Netsim.Host.maybe_crash t.host ~point:"xfer";
                  reply 0 []
                end
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_manifest then begin
            (* per-member checksums of the last installed archive, so the
               DCM can send only what changed *)
            match args with
            | [ target ] ->
                let members =
                  match read_last_entry t fs target with
                  | None -> []
                  | Some e -> e.be_members
                in
                reply 0
                  (List.map
                     (fun (name, _, ck) -> [ name; Checksum.to_hex ck ])
                     members)
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_delta then begin
            (* verify the member delta against the durable base, then
               stage the blob itself: the full archive is never
               materialized on the delta path — the reconstruction is
               a member list whose kept entries share the base's
               strings *)
            match args with
            | [ target; blob; cksum ] -> (
                match reconstruct t fs target blob with
                | Error e -> reply Moira.Mr_err.update_checksum [ [ e ] ]
                | Ok member_adlers ->
                    if stream_cksum member_adlers <> cksum then
                      reply Moira.Mr_err.update_checksum []
                    else begin
                      Netsim.Vfs.write fs
                        ~path:(target ^ staged_suffix)
                        (delta_marker ^ blob);
                      Netsim.Host.maybe_crash t.host ~point:"xfer";
                      reply 0 []
                    end)
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_script then begin
            match args with
            | [ name ] ->
                Netsim.Vfs.write fs ~path:script_staging name;
                reply 0 []
            | _ -> reply Moira.Mr_err.args []
          end
          else if req.op = op_flush then begin
            Netsim.Vfs.flush fs;
            reply 0 []
          end
          else if req.op = op_exec then begin
            let run target expected =
              Netsim.Host.maybe_crash t.host ~point:"before_exec";
              let script_name =
                Option.value
                  (Netsim.Vfs.read fs ~path:script_staging)
                  ~default:""
              in
              let staged = Netsim.Vfs.read fs ~path:(target ^ staged_suffix) in
              let already_installed =
                (* A repeated exec whose predecessor ran but whose reply
                   was lost: the staged data is gone and the durable
                   base already matches the archive checksum the DCM is
                   confirming — acknowledge instead of re-running. *)
                staged = None
                && (match expected with
                   | None -> false
                   | Some cksum -> (
                       match read_last_entry t fs target with
                       | Some e -> stream_cksum e.be_members = cksum
                       | None -> false))
              in
              if already_installed then reply 0 []
              else
                match
                  ( Hashtbl.find_opt t.scripts script_name,
                    staged_members t fs target staged )
                with
                | None, _ ->
                    reply Moira.Mr_err.update_script
                      [ [ "unknown script " ^ script_name ] ]
                | Some _, Error msg ->
                    reply Moira.Mr_err.update_script [ [ msg ] ]
                | Some script, Ok member_adlers -> (
                    let members =
                      List.map (fun (n, c, _) -> (n, c)) member_adlers
                    in
                    match script ~staged:(target ^ staged_suffix) ~members with
                    | Ok () ->
                        (* record what is now installed, durably, as the
                           base for future manifest/delta exchanges *)
                        write_base t fs target member_adlers;
                        Netsim.Vfs.flush fs;
                        Netsim.Host.maybe_crash t.host ~point:"after_exec";
                        reply 0 []
                    | Error msg ->
                        reply Moira.Mr_err.update_script [ [ msg ] ])
            in
            match args with
            | [ target ] -> run target None
            | [ target; cksum ] -> run target (Some cksum)
            | _ -> reply Moira.Mr_err.args []
          end
          else reply Moira.Mr_err.no_handle []
      | _ :: _ -> reply Moira.Mr_err.perm []
      | [] -> reply Moira.Mr_err.args [])

let serve ?(token = "krb") ?(obs = Obs.default) host =
  let t =
    {
      host;
      token;
      obs;
      scripts = Hashtbl.create 7;
      base_cache = Hashtbl.create 4;
    }
  in
  let register h =
    Netsim.Host.register h ~service:service_name (fun ~src:_ payload ->
        handle t payload)
  in
  register host;
  (* survive a crash/reboot cycle: the boot sequence brings the update
     service back like any other daemon started from rc *)
  Netsim.Host.on_boot host register;
  t

let register_script t ~name script = Hashtbl.replace t.scripts name script

let install_files host ~dir ?(after = fun () -> ()) () ~staged ~members =
  let fs = Netsim.Host.fs host in
  (* Swap in one member at a time; renames are atomic and
     same-partition, per the execution-phase rules.  A member whose live
     file already holds the physically identical string — a kept entry
     of a delta push — is left alone, so the install is O(changed
     members). *)
  List.iter
    (fun (name, contents) ->
      let live = dir ^ "/" ^ name in
      match Netsim.Vfs.read fs ~path:live with
      | Some old when old == contents -> ()
      | old ->
          (* keep the previous version for the revert instruction *)
          (match old with
          | Some old -> Netsim.Vfs.write fs ~path:(live ^ ".moira_old") old
          | None -> ());
          let tmp = live ^ staged_suffix in
          Netsim.Vfs.write fs ~path:tmp contents;
          Netsim.Vfs.flush fs;
          ignore (Netsim.Vfs.rename fs ~src:tmp ~dst:live);
          Netsim.Host.maybe_crash host ~point:"mid_install")
    members;
  Netsim.Vfs.remove fs ~path:staged;
  Netsim.Vfs.flush fs;
  Netsim.Host.maybe_crash host ~point:"before_restart";
  after ();
  Ok ()

let revert_files host ~dir ?(after = fun () -> ()) () ~staged:_ ~members =
  let fs = Netsim.Host.fs host in
  List.iter
    (fun (name, _) ->
      let live = dir ^ "/" ^ name in
      ignore (Netsim.Vfs.rename fs ~src:(live ^ ".moira_old") ~dst:live))
    members;
  Netsim.Vfs.flush fs;
  after ();
  Ok ()

type failure =
  | Soft of int * string
  | Hard of int * string

type push_stats = {
  wire_bytes : int;
  archive_bytes : int;
  members_total : int;
  members_full : int;
  members_patched : int;
  members_kept : int;
  delta : bool;
  op_retries : int;
  wasted_bytes : int;
}

let push net ~src ~dst ?(token = "krb") ?(base = []) ?(attempts = 1)
    ?parent_ctx ~target ~files ~script () =
  let wire = ref 0 and retries = ref 0 and wasted = ref 0 in
  (* Protocol-op accounting on the net's registry.  The invariant the
     chaos tests cross-check: every op sent is accounted exactly once —
     sent = ok + retried + failed.<kind>. *)
  let obs = Netsim.Net.obs net in
  let c_sent = Obs.Counter.make obs "update.ops.sent" in
  let c_ok = Obs.Counter.make obs "update.ops.ok" in
  let c_retried = Obs.Counter.make obs "update.ops.retried" in
  let c_failed f =
    Obs.Counter.make obs ("update.ops.failed." ^ Netsim.Net.failure_slug f)
  in
  let call op args =
    let slug = op_slug op in
    let payload =
      Gdb.Wire.encode_request
        {
          Gdb.Wire.version = Gdb.Wire.protocol_version;
          conn = 0;
          op;
          args = token :: args;
          (* ops carry the push span's context so the serving host's
             install spans join the same trace *)
          ctx =
            (match Obs.current_ctx obs with
            | Some c -> Obs.ctx_to_string c
            | None -> "");
        }
    in
    (* Every op is safe to re-send: xfer/delta/script overwrite their
       staging files, manifest and flush are read-only/idempotent, and
       exec carries the archive checksum so a re-sent confirm of an
       already-applied install is acknowledged without re-running.
       Each attempt is its own child span under dcm.push, so retries
       are visible in the trace. *)
    let rec go attempt =
      let sp =
        Obs.span_begin obs
          ~attrs:[ ("op", slug); ("host", dst); ("attempt", string_of_int attempt) ]
          "update.op"
      in
      wire := !wire + String.length payload;
      Obs.Counter.incr c_sent;
      match Netsim.Net.call net ~src ~dst ~service:service_name payload with
      | Error f when attempt < attempts ->
          incr retries;
          Obs.Counter.incr c_retried;
          wasted := !wasted + String.length payload;
          Obs.span_end obs
            ~attrs:[ ("outcome", "retry:" ^ Netsim.Net.failure_slug f) ]
            sp;
          go (attempt + 1)
      | Error f ->
          Obs.Counter.incr (c_failed f);
          Obs.span_end obs ~attrs:[ ("outcome", Netsim.Net.failure_slug f) ] sp;
          Error
            (Soft
               ( (match f with
                 | Netsim.Net.Host_down | Netsim.Net.No_host ->
                     Moira.Mr_err.host_unreachable
                 | _ -> Moira.Mr_err.update_timeout),
                 Netsim.Net.failure_to_string f ))
      | Ok raw ->
          Obs.Counter.incr c_ok;
          wire := !wire + String.length raw;
          let res =
            match Gdb.Wire.decode_reply raw with
            | Error e -> Error (Soft (Moira.Mr_err.aborted, e))
            | Ok reply ->
                if reply.Gdb.Wire.code = 0 then Ok reply.Gdb.Wire.tuples
                else if reply.Gdb.Wire.code = Moira.Mr_err.update_checksum then begin
                  Obs.Counter.incr (Obs.Counter.make obs "update.proto.soft");
                  Error (Soft (reply.Gdb.Wire.code, "checksum mismatch"))
                end
                else if reply.Gdb.Wire.code = Moira.Mr_err.perm then begin
                  Obs.Counter.incr (Obs.Counter.make obs "update.proto.hard");
                  Error (Hard (reply.Gdb.Wire.code, "authentication rejected"))
                end
                else begin
                  Obs.Counter.incr (Obs.Counter.make obs "update.proto.hard");
                  let detail =
                    match reply.Gdb.Wire.tuples with
                    | [ [ msg ] ] -> msg
                    | _ -> Comerr.Com_err.error_message reply.Gdb.Wire.code
                  in
                  Error (Hard (reply.Gdb.Wire.code, detail))
                end
          in
          Obs.span_end obs
            ~attrs:
              [
                ( "outcome",
                  match res with
                  | Ok _ -> "ok"
                  | Error (Soft _) -> "soft"
                  | Error (Hard _) -> "hard" );
              ]
            sp;
          res
    in
    go 1
  in
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  Obs.with_span obs ?parent_ctx "dcm.push"
    ~attrs:[ ("host", dst); ("target", target) ]
  @@ fun () ->
  (* The checksum and size stream over the member docs, so the delta
     path — the common case once a host has a base — never allocates the
     multi-megabyte archive OR any whole member string; the archive is
     packed lazily, only when a full transfer actually ships it.
     [update.client.full_packs] counts the materializations (the old
     code's "5 full passes" ROADMAP item). *)
  let cksum = Checksum.to_hex (Tarlike.checksum_docs files) in
  let archive_bytes = Tarlike.packed_size_docs files in
  let c_full_packs = Obs.Counter.make obs "update.client.full_packs" in
  let archive =
    lazy
      (Obs.Counter.incr c_full_packs;
       Tarlike.pack_docs files)
  in
  let full () =
    let* _ = call op_xfer [ target; Lazy.force archive; cksum ] in
    Ok (List.length files, 0, 0, false)
  in
  let* full_members, patched, kept, delta =
    (* A manifest failure is never final: the authoritative outcome comes
       from the full transfer it falls back to (old servers answer
       MR_NO_HANDLE; an unreachable host fails the op_xfer the same
       way). *)
    match call op_manifest [ target ] with
    | Error _ -> full ()
    | Ok tuples -> (
        let manifest =
          List.filter_map
            (function [ n; c ] -> Some (n, c) | _ -> None)
            tuples
        in
        if manifest = [] then full ()
        else
          let nfull = ref 0 and npatch = ref 0 and nkeep = ref 0 in
          let full_entry contents =
            (* shares the doc's chunks behind a one-byte tag *)
            Sink.concat [ Sink.of_string "F"; contents ]
          in
          let entries =
            List.map
              (fun (name, contents) ->
                match List.assoc_opt name manifest with
                | Some m when m = doc_cksum contents ->
                    incr nkeep;
                    (name, Sink.of_string "K")
                | Some m -> (
                    match List.assoc_opt name base with
                    | Some b when doc_cksum b = m ->
                        incr npatch;
                        (name, Sink.of_string (patch_encode ~base:b contents))
                    | _ ->
                        incr nfull;
                        (name, full_entry contents))
                | None ->
                    incr nfull;
                    (name, full_entry contents))
              files
          in
          match call op_delta [ target; Tarlike.pack_docs entries; cksum ] with
          | Ok _ -> Ok (!nfull, !npatch, !nkeep, true)
          | Error (Soft (code, _)) when code = Moira.Mr_err.update_checksum
            ->
              (* the host's base disagrees with its manifest (or the
                 reconstruction failed): ship the whole archive *)
              full ()
          | Error e -> Error e)
  in
  let* _ = call op_script [ script ] in
  let* _ = call op_flush [] in
  let* _ = call op_exec [ target; cksum ] in
  Ok
    {
      wire_bytes = !wire;
      archive_bytes;
      members_total = List.length files;
      members_full = full_members;
      members_patched = patched;
      members_kept = kept;
      delta;
      op_retries = !retries;
      wasted_bytes = !wasted;
    }
