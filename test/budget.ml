(* Minor-heap allocation budgets, for tests. A count of minor words is
   exact and deterministic for one compiler, so a budget is the value
   measured on OCaml 5.1 (native, no flambda, as dune's default profile
   builds it) plus 2%. Other compilers allocate differently; there the
   figures are printed, not enforced. *)

let enforced =
  Sys.backend_type = Sys.Native
  && String.length Sys.ocaml_version >= 4
  && String.sub Sys.ocaml_version 0 4 = "5.1."

(* Print [what]'s measured words against its budget; where budgets are
   enforced, fail the test above it. *)
let check what ~measured ~budget =
  Printf.printf "%s: %.3f words (budget %.3f%s)\n" what measured budget
    (if enforced then "" else ", not enforced on OCaml " ^ Sys.ocaml_version);
  if enforced then
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words <= %.2f" what measured budget)
      true (measured <= budget)

(* Runs [round] 10 times to warm up (the heap reaches its first
   capacity), then returns the words per call over 1000 more. *)
let words_per_round round =
  for _ = 1 to 10 do round () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do round () done;
  (Gc.minor_words () -. w0) /. 1000.0
