(* Strict JSON syntax checker (RFC 8259 grammar, stdlib only — the
   emitters live in lib/obs, so CI needs an independent parser to catch
   malformed emissions).  Usage: json_check [--jsonl|--bench] FILE.
   Exits 0 iff the file is exactly one well-formed JSON value plus
   optional trailing whitespace — or, with --jsonl (the probe-transcript
   format of Vc_obs.Trace), one well-formed value per non-empty line;
   otherwise prints the position of the first error and exits 1.

   --bench additionally validates the shape of a bench report's [snap]
   section (the snapshot-load-vs-cold-build rows: a non-empty array of
   rows each carrying name/build_ns/load_ns/bytes/speedup/ok with the
   right types, every row's gate passed), its [rewarm] section, its
   [synth] section (the SAT-synthesis cost rows: fully populated, with
   at least one SAT and one UNSAT verdict), and its [families] section
   (the graph-family measurement ladders: every fitted class agrees,
   every point well-shaped, and Question 7.3's sinkless-orientation
   rungs present).  The parser builds a minimal
   value tree for this; the syntax-only modes discard it.

   --synth validates a `volcomp synth --json` verdict table: a non-empty
   [verdicts] array whose rows carry [certified] (null or a boolean) and
   [certify_error] (a string exactly when [certified] is false, the
   DRUP replay's reason for rejecting the proof; null otherwise). *)

exception Bad of int * string

(* Just enough structure for the --bench shape checks; numbers need no
   value, strings keep their raw (unescaped) contents. *)
type v =
  | Vnull
  | Vbool of bool
  | Vnum
  | Vstr of string
  | Varr of v list
  | Vobj of (string * v) list

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let fail st msg = raise (Bad (st.pos, msg))

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect_keyword st kw =
  String.iter (fun c -> expect st c) kw

let is_digit = function '0' .. '9' -> true | _ -> false
let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse_digits st =
  if not (match peek st with Some c -> is_digit c | None -> false) then
    fail st "expected a digit";
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done

(* JSON numbers: optional minus; "0" or a nonzero-led digit run; then an
   optional fraction part and an optional signed exponent part. *)
let parse_number st =
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | Some c when is_digit c -> parse_digits st
  | _ -> fail st "expected a digit");
  if peek st = Some '.' then begin
    advance st;
    parse_digits st
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      parse_digits st
  | _ -> ())

(* Returns the raw (still-escaped) contents — the --bench member names
   are plain ASCII, so no unescaping is needed to compare them. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let closed = ref false in
  while not !closed do
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        closed := true
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance st
        | Some 'u' ->
            advance st;
            for _ = 1 to 4 do
              match peek st with
              | Some c when is_hex c -> advance st
              | _ -> fail st "expected four hex digits after \\u"
            done
        | _ -> fail st "invalid escape sequence")
    | Some c when Char.code c < 0x20 -> fail st "unescaped control character in string"
    | Some _ -> advance st
  done;
  String.sub st.src start (st.pos - 1 - start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> Vstr (parse_string st)
  | Some 't' ->
      expect_keyword st "true";
      Vbool true
  | Some 'f' ->
      expect_keyword st "false";
      Vbool false
  | Some 'n' ->
      expect_keyword st "null";
      Vnull
  | Some ('-' | '0' .. '9') ->
      parse_number st;
      Vnum
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)
  | None -> fail st "expected a JSON value, found end of input"

and parse_object st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Vobj []
  end
  else begin
    let members = ref [] in
    let continue = ref true in
    while !continue do
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      members := (key, value) :: !members;
      skip_ws st;
      match peek st with
      | Some ',' -> advance st
      | Some '}' ->
          advance st;
          continue := false
      | _ -> fail st "expected ',' or '}' in object"
    done;
    Vobj (List.rev !members)
  end

and parse_array st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    Varr []
  end
  else begin
    let items = ref [] in
    let continue = ref true in
    while !continue do
      items := parse_value st :: !items;
      skip_ws st;
      match peek st with
      | Some ',' -> advance st
      | Some ']' ->
          advance st;
          continue := false
      | _ -> fail st "expected ',' or ']' in array"
    done;
    Varr (List.rev !items)
  end

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let check_value src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing garbage after JSON value";
  v

(* --- bench-report shape checks ------------------------------------------------ *)

let member key = function Vobj ms -> List.assoc_opt key ms | _ -> None

let bench_fail path fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: bad report shape: %s\n" path msg;
      exit 1)
    fmt

(* The snap section carries the snapshot-load-vs-cold-build gate rows;
   each must be fully populated and must have passed its gate. *)
let check_snap_section path doc =
  let rows =
    match member "snap" doc with
    | Some (Varr (_ :: _ as rows)) -> rows
    | Some (Varr []) -> bench_fail path "snap section is empty"
    | Some _ -> bench_fail path "snap section is not an array"
    | None -> bench_fail path "no snap section"
  in
  List.iteri
    (fun i row ->
      let want key = function
        | Some got -> got
        | None -> bench_fail path "snap row %d lacks %s" i key
      in
      (match want "name" (member "name" row) with
      | Vstr _ -> ()
      | _ -> bench_fail path "snap row %d: name is not a string" i);
      List.iter
        (fun key ->
          match want key (member key row) with
          | Vnum -> ()
          | _ -> bench_fail path "snap row %d: %s is not a number" i key)
        [ "build_ns"; "load_ns"; "bytes"; "speedup" ];
      match want "ok" (member "ok" row) with
      | Vbool true -> ()
      | Vbool false -> bench_fail path "snap row %d failed its speedup gate" i
      | _ -> bench_fail path "snap row %d: ok is not a boolean" i)
    rows;
  List.length rows

(* The rewarm section is the serving-layer build-vs-snapshot comparison;
   report-only (no gate flag) but it must be fully populated. *)
let check_rewarm_section path doc =
  let row =
    match member "rewarm" doc with
    | Some (Vobj _ as row) -> row
    | Some _ -> bench_fail path "rewarm section is not an object"
    | None -> bench_fail path "no rewarm section"
  in
  (match member "problem" row with
  | Some (Vstr _) -> ()
  | _ -> bench_fail path "rewarm: problem is not a string");
  List.iter
    (fun key ->
      match member key row with
      | Some Vnum -> ()
      | _ -> bench_fail path "rewarm: %s is not a number" key)
    [ "size"; "rebuild_ns"; "snapshot_ns"; "speedup" ]

(* The synth section carries the SAT-synthesis cost rows (--synth);
   report-only, but every row must be fully populated and the verdict
   pattern must be coherent: at least one SAT and one UNSAT row. *)
let check_synth_section path doc =
  let rows =
    match member "synth" doc with
    | Some (Varr (_ :: _ as rows)) -> rows
    | Some (Varr []) -> bench_fail path "synth section is empty"
    | Some _ -> bench_fail path "synth section is not an array"
    | None -> bench_fail path "no synth section"
  in
  let sats = ref 0 and unsats = ref 0 in
  List.iteri
    (fun i row ->
      (match member "problem" row with
      | Some (Vstr _) -> ()
      | _ -> bench_fail path "synth row %d: problem is not a string" i);
      List.iter
        (fun key ->
          match member key row with
          | Some Vnum -> ()
          | _ -> bench_fail path "synth row %d: %s is not a number" i key)
        [ "volume"; "cegis"; "conflicts"; "propagations"; "vars"; "clauses"; "wall_s" ];
      match member "sat" row with
      | Some (Vbool true) -> incr sats
      | Some (Vbool false) -> incr unsats
      | _ -> bench_fail path "synth row %d: sat is not a boolean" i)
    rows;
  if !sats = 0 then bench_fail path "synth section has no SAT row";
  if !unsats = 0 then bench_fail path "synth section has no UNSAT row";
  List.length rows

(* The families section carries the graph-family measurement ladders:
   every report must have all_agree true, every measurement a fitted
   class that agrees with the paper's claim and a non-empty point list,
   and Question 7.3's sinkless-orientation ("SO:") rungs must appear. *)
let check_families_section path doc =
  let reports =
    match member "families" doc with
    | Some (Varr (_ :: _ as rs)) -> rs
    | Some (Varr []) -> bench_fail path "families section is empty"
    | Some _ -> bench_fail path "families section is not an array"
    | None -> bench_fail path "no families section"
  in
  let so = ref 0 in
  List.iteri
    (fun i report ->
      (match member "title" report with
      | Some (Vstr _) -> ()
      | _ -> bench_fail path "families report %d: title is not a string" i);
      (match member "all_agree" report with
      | Some (Vbool true) -> ()
      | Some (Vbool false) ->
          bench_fail path "families report %d has a fitted-class mismatch" i
      | _ -> bench_fail path "families report %d: all_agree is not a boolean" i);
      let ms =
        match member "measurements" report with
        | Some (Varr (_ :: _ as ms)) -> ms
        | _ -> bench_fail path "families report %d: measurements missing or empty" i
      in
      List.iteri
        (fun j m ->
          (match member "quantity" m with
          | Some (Vstr q) ->
              if String.length q >= 3 && String.sub q 0 3 = "SO:" then incr so
          | _ ->
              bench_fail path "families report %d measurement %d: quantity is not a string" i j);
          List.iter
            (fun key ->
              match member key m with
              | Some (Vstr _) -> ()
              | _ ->
                  bench_fail path "families report %d measurement %d: %s is not a string" i j
                    key)
            [ "paper_claim"; "fitted" ];
          (match member "agrees" m with
          | Some (Vbool true) -> ()
          | Some (Vbool false) ->
              bench_fail path "families report %d measurement %d disagrees with the paper" i j
          | _ ->
              bench_fail path "families report %d measurement %d: agrees is not a boolean" i j);
          match member "points" m with
          | Some (Varr (_ :: _ as pts)) ->
              List.iter
                (function
                  | Varr [ Vnum; Vnum ] -> ()
                  | _ -> bench_fail path "families report %d measurement %d: malformed point" i j)
                pts
          | _ -> bench_fail path "families report %d measurement %d: points missing or empty" i j)
        ms)
    reports;
  if !so = 0 then bench_fail path "families section lacks sinkless-orientation (SO:) rungs";
  List.length reports

let check_synth_verdicts path doc =
  let rows =
    match member "verdicts" doc with
    | Some (Varr (_ :: _ as rows)) -> rows
    | _ -> bench_fail path "verdicts missing, empty or not an array"
  in
  List.iteri
    (fun i row ->
      match (member "certified" row, member "certify_error" row) with
      | Some (Vbool false), Some (Vstr _) -> ()
      | Some (Vbool false), _ -> bench_fail path "verdict %d: certify_error is not a string" i
      | Some (Vnull | Vbool true), Some Vnull -> ()
      | Some (Vnull | Vbool true), _ -> bench_fail path "verdict %d: certify_error is not null" i
      | _ -> bench_fail path "verdict %d: certified is not null or a boolean" i)
    rows;
  List.length rows

let () =
  let mode, path =
    match Sys.argv with
    | [| _; "--jsonl"; path |] -> (`Jsonl, path)
    | [| _; "--bench"; path |] -> (`Bench, path)
    | [| _; "--synth"; path |] -> (`Synth, path)
    | [| _; path |] -> (`Plain, path)
    | _ ->
        prerr_endline "usage: json_check [--jsonl|--bench|--synth] FILE";
        exit 2
  in
  let src = try read_file path with Sys_error msg -> prerr_endline msg; exit 2 in
  if mode = `Jsonl then begin
    let lines = String.split_on_char '\n' src in
    let n = ref 0 in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then begin
          incr n;
          match check_value line with
          | (_ : v) -> ()
          | exception Bad (pos, msg) ->
              Printf.eprintf "%s: line %d: malformed JSON at byte %d: %s\n" path (i + 1) pos msg;
              exit 1
        end)
      lines;
    if !n = 0 then begin
      Printf.eprintf "%s: no JSON values (empty JSONL file)\n" path;
      exit 1
    end;
    Printf.printf "%s: well-formed JSONL (%d values)\n" path !n
  end
  else
    match check_value src with
    | doc ->
        if mode = `Bench then begin
          let rows = check_snap_section path doc in
          check_rewarm_section path doc;
          let synth_rows = check_synth_section path doc in
          let family_reports = check_families_section path doc in
          Printf.printf
            "%s: well-formed bench report (%d bytes, %d snap row(s), %d synth row(s), %d \
             family report(s) ok)\n"
            path (String.length src) rows synth_rows family_reports
        end
        else if mode = `Synth then
          Printf.printf "%s: well-formed synth verdict table (%d verdict(s) ok)\n" path
            (check_synth_verdicts path doc)
        else Printf.printf "%s: well-formed JSON (%d bytes)\n" path (String.length src)
    | exception Bad (pos, msg) ->
        Printf.eprintf "%s: malformed JSON at byte %d: %s\n" path pos msg;
        exit 1
