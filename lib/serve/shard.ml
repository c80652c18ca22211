(* Supervisor-side state of one worker: the child process, the
   socketpair channel to it, and the shard's warm-session ledger.

   The ledger is the supervisor's mirror of the worker's LRU cache: it
   records, with the same capacity and recency order, which
   (problem, size, seed) worlds the worker has resident.  It is what
   makes re-warm after a respawn possible — the dead worker's memory is
   gone, but the supervisor knows exactly which sessions to rebuild. *)

type spawn = shard:int -> fd:Unix.file_descr -> close_fds:Unix.file_descr list -> int

type t = {
  id : int;
  warm : (string, Protocol.query) Lru.t;
  mutable pid : int;
  mutable ch : Wire.t;
  mutable inflight : int;
  mutable respawns : int;
}

(* The worker end of the socketpair is handed to [spawn] and closed in
   the parent either way: a forked child inherited it, an exec'd child
   got it dup2'd onto stdin.  The parent end is cloexec so later
   exec-spawned siblings don't pin it open; it is also prepended to the
   spawn's close list — a forked child that kept it would hold its own
   channel open and never see EOF when the supervisor exits. *)
let start ~spawn ~close_fds id =
  let parent, child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec parent;
  let pid = spawn ~shard:id ~fd:child ~close_fds:(parent :: close_fds) in
  Unix.close child;
  (pid, parent)

let create ~spawn ~warm_capacity ~close_fds id =
  let pid, fd = start ~spawn ~close_fds id in
  {
    id;
    warm = Lru.create ~capacity:warm_capacity;
    pid;
    ch = Wire.of_fd fd;
    inflight = 0;
    respawns = 0;
  }

let rec reap t =
  match Unix.waitpid [] t.pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap t
  | exception Unix.Unix_error _ -> ()

let respawn ~spawn ~close_fds t =
  let pid, fd = start ~spawn ~close_fds t.id in
  t.pid <- pid;
  t.ch <- Wire.of_fd fd;
  t.inflight <- 0;
  t.respawns <- t.respawns + 1

let note_warm t ~key q = ignore (Lru.add t.warm key q : (string * Protocol.query) option)

let warm_count t = Lru.length t.warm

(* Oldest first, so re-warm rebuilds the worker's LRU in the original
   recency order. *)
let warm_queries t = List.rev_map snd (Lru.to_list t.warm)
