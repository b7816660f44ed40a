let table =
  Comerr.Com_err.create_table ~name:"mr"
    [|
      (* 0 *) "An argument contains too many characters";
      (* 1 *) "Incorrect number of arguments";
      (* 2 *) "Database deadlock; try again later";
      (* 3 *) "An unexpected error occurred in the underlying DBMS";
      (* 4 *) "Internal consistency failure";
      (* 5 *) "Unknown query specified";
      (* 6 *) "Server ran out of memory";
      (* 7 *) "Insufficient permission to perform requested database access";
      (* 8 *) "No records in database match query";
      (* 9 *) "More data follows";
      (* 10 *) "Illegal character in argument";
      (* 11 *) "Record already exists";
      (* 12 *) "String could not be parsed as an integer";
      (* 13 *) "Cannot allocate new ID";
      (* 14 *) "Arguments not unique";
      (* 15 *) "Object is in use";
      (* 16 *) "No such access control entity";
      (* 17 *) "Specified class is not known";
      (* 18 *) "Invalid group ID";
      (* 19 *) "Unknown cluster";
      (* 20 *) "Invalid date";
      (* 21 *) "Named file system does not exist";
      (* 22 *) "Named file system already exists";
      (* 23 *) "Invalid filesys access";
      (* 24 *) "Invalid filesys type";
      (* 25 *) "No such list";
      (* 26 *) "Unknown machine";
      (* 27 *) "Specified directory not exported";
      (* 28 *) "Machine/device pair not in nfsphys relation";
      (* 29 *) "Cannot find space for filesys";
      (* 30 *) "Unknown post office";
      (* 31 *) "Unknown service";
      (* 32 *) "Invalid type";
      (* 33 *) "No such user";
      (* 34 *) "Wildcards not allowed here";
      (* 35 *) "Not connected to Moira server";
      (* 36 *) "Already connected to Moira server";
      (* 37 *) "Connection aborted";
      (* 38 *) "Protocol version skew between client and server";
      (* 39 *) "Can't connect to Moira server";
      (* 40 *) "No change; data files not rebuilt";
      (* 41 *) "DCM updates are disabled";
      (* 42 *) "Checksum mismatch in transferred file";
      (* 43 *) "Update operation timed out";
      (* 44 *) "Installation script failed on target host";
      (* 45 *) "Target host unreachable";
      (* 46 *) "Update already in progress";
      (* 47 *) "Query refused: server is a read-only replica";
      (* 48 *) "Replica has not yet caught up to the client's writes";
    |]

let code = Comerr.Com_err.code table
let arg_too_long = code 0
let args = code 1
let deadlock = code 2
let ingres_err = code 3
let internal = code 4
let no_handle = code 5
let no_mem = code 6
let perm = code 7
let no_match = code 8
let more_data = code 9
let bad_char = code 10
let exists = code 11
let integer = code 12
let no_id = code 13
let not_unique = code 14
let in_use = code 15
let ace = code 16
let bad_class = code 17
let bad_group = code 18
let cluster = code 19
let date = code 20
let filesys = code 21
let filesys_exists = code 22
let filesys_access = code 23
let fstype = code 24
let list = code 25
let machine = code 26
let nfs = code 27
let nfsphys = code 28
let no_filesys = code 29
let pobox = code 30
let service = code 31
let typ = code 32
let user = code 33
let wildcard = code 34
let not_connected = code 35
let already_connected = code 36
let aborted = code 37
let version_skew = code 38
let cant_connect = code 39
let no_change = code 40
let dcm_disabled = code 41
let update_checksum = code 42
let update_timeout = code 43
let update_script = code 44
let host_unreachable = code 45
let in_progress = code 46
let read_only_replica = code 47
let replica_stale = code 48
