(* Opt-in lock-discipline sanitizer (lockset-style, cf. Eraser).

   The DCM's correctness argument leans on a discipline the type system
   cannot see: critical sections never nest on the same key, every
   release matches an acquire, no lock outlives a cycle, and a managed
   host's durable files are only written while the DCM holds that host's
   lock.  This module checks all four at runtime.  It is wired to the
   [Relation.Lock] monitor and the [Netsim.Vfs] write hook — both [None]
   unless installed, so the default-off cost is nothing.

   Enable with [Workload.Testbed.create ~sanitize:true] (the static
   analyzer's chaos day and the sanitizer tests do).  Violations are
   counted in the [Obs] registry under [sanitizer.*] and detailed on the
   ["sanitizer"] log channel; tests assert {!violations} [= 0] at the
   end of a run. *)

type t = {
  obs : Obs.t;
  locks : Relation.Lock.t;
  c_double : Obs.Counter.counter;
  c_unheld : Obs.Counter.counter;
  c_unlocked_write : Obs.Counter.counter;
  c_held_at_end : Obs.Counter.counter;
  (* (held-class, acquired-class) pairs seen on successful acquires:
     the observed lock-order graph, one edge per ordered class pair.
     A plain mutable list kept sorted-unique on read; runs observe a
     handful of classes, so no table is warranted. *)
  mutable edges : (string * string) list;
}

(* Lock keys are "<class>:<instance>" ("service:zephyr",
   "host:zephyr/w20-a"); ordering discipline is per class, not per
   instance, so the graphs collapse keys to their class. *)
let key_class key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

let log t msg attrs = Obs.log t.obs ~channel:"sanitizer" ~attrs msg

let install ~obs locks =
  let t =
    {
      obs;
      locks;
      c_double = Obs.Counter.make obs "sanitizer.double_acquire";
      c_unheld = Obs.Counter.make obs "sanitizer.release_unheld";
      c_unlocked_write = Obs.Counter.make obs "sanitizer.unlocked_write";
      c_held_at_end = Obs.Counter.make obs "sanitizer.locks_held_at_end";
      edges = [];
    }
  in
  Relation.Lock.set_monitor locks
    (Some
       (function
       | Relation.Lock.Double_acquire { key; owner } ->
           Obs.Counter.incr t.c_double;
           log t "double acquire" [ ("key", key); ("owner", owner) ]
       | Relation.Lock.Release_unheld { key; owner } ->
           Obs.Counter.incr t.c_unheld;
           log t "release without ownership"
             [ ("key", key); ("owner", owner) ]
       | Relation.Lock.Acquired { key; owner = _; held } ->
           let nc = key_class key in
           List.iter
             (fun h ->
               let e = (key_class h, nc) in
               if fst e <> snd e && not (List.mem e t.edges) then
                 t.edges <- e :: t.edges)
             held));
  t

let observed_lock_edges t = List.sort compare t.edges

(* Update-protocol staging paths are host-private scratch: legal to
   touch without the lock (an aborted push leaves them behind by
   design). *)
let staging path =
  String.starts_with ~prefix:"/tmp/" path
  || Filename.check_suffix path ".moira_update"
  || Filename.check_suffix path ".moira_old"

let host_locked t ~machine =
  let suffix = "/" ^ machine in
  List.exists
    (fun key ->
      String.starts_with ~prefix:"host:" key
      && String.length key >= String.length suffix
      && String.sub key
           (String.length key - String.length suffix)
           (String.length suffix)
         = suffix)
    (Relation.Lock.keys t.locks)

let guard_host t ~machine ~dirs fs =
  Netsim.Vfs.set_write_hook fs
    (Some
       (fun path ->
         if
           List.exists
             (fun d -> String.starts_with ~prefix:(d ^ "/") path)
             dirs
           && (not (staging path))
           && not (host_locked t ~machine)
         then begin
           Obs.Counter.incr t.c_unlocked_write;
           log t "durable write without the host lock"
             [ ("machine", machine); ("path", path) ]
         end))

let check_quiescent t =
  let held = Relation.Lock.keys t.locks in
  List.iter
    (fun key ->
      Obs.Counter.incr t.c_held_at_end;
      log t "lock still held at end of run" [ ("key", key) ])
    held;
  held

let violations t =
  Obs.Counter.get t.c_double + Obs.Counter.get t.c_unheld
  + Obs.Counter.get t.c_unlocked_write
  + Obs.Counter.get t.c_held_at_end
