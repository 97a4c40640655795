(* The load generator: starts `faerie serve`, drives it over its stdin and
   stdout from this one process, and timestamps every request and response.
   Responses are only matched to requests while a phase runs; parsing and
   checking them waits until the server has stopped, so the generator
   takes as little CPU from the server as it can. *)

module W = Workload

type phase = Closed | Open

let phase_name = function Closed -> "closed" | Open -> "open"

type sent = {
  doc : int;  (** index into the workload's documents *)
  phase : phase;
  due : int;  (** when the request was due (ns); the send time in closed loops *)
  sent_at : int;
  mutable recv : int;  (** 0 until the response arrives *)
  mutable resp : string;
  mutable dups : int;  (** responses beyond the first *)
}

type server = {
  pid : int;
  to_srv : Unix.file_descr;
  from_srv : Unix.file_descr;
  out : Buffer.t;  (** request bytes not yet written *)
  mutable out_off : int;
  line : Buffer.t;  (** a response line still arriving *)
  rbuf : Bytes.t;
  mutable eof : bool;
}

let spawn ~exe ~args ~tmpdir ~stderr_path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  (* Keep anything the server puts in $TMPDIR inside the work dir. *)
  let env =
    Array.append
      [| "TMPDIR=" ^ tmpdir |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  Unix.set_nonblock in_w;
  Unix.set_nonblock out_r;
  {
    pid;
    to_srv = in_w;
    from_srv = out_r;
    out = Buffer.create 65536;
    out_off = 0;
    line = Buffer.create 4096;
    rbuf = Bytes.create 65536;
    eof = false;
  }

let flush_out srv =
  let len = Buffer.length srv.out in
  let rec go () =
    if srv.out_off < len then
      match
        Unix.single_write_substring srv.to_srv (Buffer.contents srv.out)
          srv.out_off (len - srv.out_off)
      with
      | n ->
          srv.out_off <- srv.out_off + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
  in
  go ();
  if srv.out_off = len then begin
    Buffer.clear srv.out;
    srv.out_off <- 0
  end

let write_line srv s =
  Buffer.add_string srv.out s;
  Buffer.add_char srv.out '\n';
  flush_out srv

let read_available srv on_line =
  let rec go () =
    match Unix.read srv.from_srv srv.rbuf 0 (Bytes.length srv.rbuf) with
    | 0 -> srv.eof <- true
    | n ->
        let t = Stats.now () in
        for i = 0 to n - 1 do
          match Bytes.get srv.rbuf i with
          | '\n' ->
              let l = Buffer.contents srv.line in
              Buffer.clear srv.line;
              on_line l t
          | c -> Buffer.add_char srv.line c
        done;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

(* Wait for I/O until the absolute time [until] (ns), then move what is
   ready in both directions. *)
let pump srv ~until on_line =
  let wait = Float.max 0. (float_of_int (until - Stats.now ()) /. 1e9) in
  let rd = if srv.eof then [] else [ srv.from_srv ] in
  let wr = if Buffer.length srv.out > srv.out_off then [ srv.to_srv ] else [] in
  if rd = [] && wr = [] then Unix.sleepf wait
  else
    match Unix.select rd wr [] wait with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if w <> [] then flush_out srv;
        if r <> [] then read_available srv on_line

(* ---- matching responses to requests ---- *)

(* Index just past the first [sub] in [s] that starts before [limit]. *)
let find_sub ?(limit = max_int) s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n || i >= limit then None
    else if matches i 0 then Some (i + m)
    else go (i + 1)
  in
  go 0

(* The quoted string value after [key] in a response line, without a full
   parse: responses put "op" and "id" within their first few fields. Only
   admin responses carry "op". *)
let string_field line key =
  match find_sub ~limit:48 line ("\"" ^ key ^ "\":\"") with
  | None -> None
  | Some i -> (
      match String.index_from_opt line i '"' with
      | None -> None
      | Some j -> Some (String.sub line i (j - i)))

type run = {
  srv : server;
  mutable log : sent array;
  mutable n_log : int;
  mutable outstanding : int;
  mutable health_answers : int;
  mutable unmatched : string list;  (** responses that matched no request *)
}

let on_line r line t =
  match string_field line "op" with
  | Some "health" -> r.health_answers <- r.health_answers + 1
  | Some _ -> r.unmatched <- line :: r.unmatched
  | None -> (
      match Option.bind (string_field line "id") int_of_string_opt with
      | Some ord when ord >= 0 && ord < r.n_log ->
          let s = r.log.(ord) in
          if s.recv <> 0 then s.dups <- s.dups + 1
          else begin
            s.recv <- t;
            s.resp <- line;
            r.outstanding <- r.outstanding - 1
          end
      | _ -> r.unmatched <- line :: r.unmatched)

let dummy =
  { doc = 0; phase = Closed; due = 0; sent_at = 0; recv = 0; resp = ""; dups = 0 }

let send r inputs doc ~phase ~due =
  if r.n_log = Array.length r.log then begin
    let b = Array.make (2 * r.n_log) dummy in
    Array.blit r.log 0 b 0 r.n_log;
    r.log <- b
  end;
  let ord = r.n_log in
  let sent_at = Stats.now () in
  let due = if due = 0 then sent_at else due in
  r.log.(ord) <- { doc; phase; due; sent_at; recv = 0; resp = ""; dups = 0 };
  r.n_log <- ord + 1;
  r.outstanding <- r.outstanding + 1;
  write_line r.srv (W.request_line ~id:(string_of_int ord) inputs doc)

let pump_run r ~until = pump r.srv ~until (on_line r)

let sec = 1_000_000_000

(* Wait until fewer than [k] requests are outstanding. Gives up after a
   minute without a response (the missing ones then count as failed) and
   returns whether it got there. *)
let wait_below r k =
  let last = ref (Stats.now ()) and seen = ref r.outstanding in
  while r.outstanding >= k && (not r.srv.eof) && Stats.now () - !last < 60 * sec do
    pump_run r ~until:(Stats.now () + (sec / 10));
    if r.outstanding <> !seen then begin
      seen := r.outstanding;
      last := Stats.now ()
    end
  done;
  r.outstanding < k

(* ---- server lifecycle ---- *)

let start ~exe ~args ~tmpdir ~stderr_path =
  let t0 = Stats.now () in
  let srv = spawn ~exe ~args ~tmpdir ~stderr_path in
  let r =
    {
      srv;
      log = Array.make 4096 dummy;
      n_log = 0;
      outstanding = 0;
      health_answers = 0;
      unmatched = [];
    }
  in
  write_line srv "{\"v\":1,\"op\":\"health\"}";
  let give_up = t0 + (120 * sec) in
  while r.health_answers = 0 && (not srv.eof) && Stats.now () < give_up do
    pump_run r ~until:(Stats.now () + (sec / 10))
  done;
  if r.health_answers = 0 then
    failwith
      (Printf.sprintf "perfbench: server did not answer health (see %s)"
         stderr_path);
  (r, Stats.now () - t0)

(* Close the server's stdin, collect any late responses, and wait for the
   process to exit (killing it if it does not). *)
let stop r =
  (try Unix.close r.srv.to_srv with Unix.Unix_error _ -> ());
  let give_up = Stats.now () + (60 * sec) in
  while (not r.srv.eof) && Stats.now () < give_up do
    pump_run r ~until:(Stats.now () + (sec / 10))
  done;
  Unix.close r.srv.from_srv;
  let give_up = Stats.now () + (30 * sec) in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] r.srv.pid with
    | 0, _ when Stats.now () < give_up ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill r.srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] r.srv.pid)
    | _, status -> ignore status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* ---- peak memory ---- *)

let read_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  with Sys_error _ -> ""

(* The machine's CPU time so far, in clock ticks: (all, stolen by the
   hypervisor for other guests). *)
let cpu_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
          (List.fold_left ( + ) 0 v, List.nth v 7)
      | _ -> (0, 0))
  | [] -> (0, 0)

let vm_hwm_kb pid =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
          | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)))

(* VmHWM of the server process; it serves in-process, with no shard
   children to add. *)
let peak_rss_mb r = float_of_int (vm_hwm_kb r.srv.pid) /. 1024.

(* ---- phases ----
   Each phase does a fixed amount of work, so every run of one seed sends
   the same operations and only the speed varies. *)

(* Closed loop: keep [conc] requests outstanding until [docs] documents
   were sent, then wait for the stragglers. *)
let closed_loop r inputs ~phase ~conc ~next ~docs =
  let sent_docs = ref 0 in
  let more () = !sent_docs < docs in
  let live = ref true in
  while !live && more () do
    while r.outstanding < conc && more () do
      incr sent_docs;
      send r inputs (next ()) ~phase ~due:0
    done;
    live := wait_below r conc
  done;
  ignore (wait_below r 1 : bool)

(* Open loop: [docs] Poisson arrivals at [rate]/s on a seeded schedule,
   each sent when due whatever is outstanding. Returns the generator's
   lateness (send time minus due time, ms) per request. *)
let open_loop r inputs ~rate ~seed ~next ~docs =
  let rng = Random.State.make [| seed; 0x6f70656e |] in
  let gap () =
    let u = 1. -. Random.State.float rng 1. in
    int_of_float (-.Float.log u /. rate *. 1e9)
  in
  let lateness = Stats.Samples.create () in
  let due = ref (Stats.now () + gap ()) and n = ref 0 in
  while !n < docs do
    let now = Stats.now () in
    if now >= !due then begin
      send r inputs (next ()) ~phase:Open ~due:!due;
      Stats.Samples.add lateness (Stats.ms (now - !due));
      incr n;
      due := !due + gap ()
    end
    else pump_run r ~until:!due
  done;
  ignore (wait_below r 1 : bool);
  lateness
