(** Route-fluttering detection (Assumption T.2).

    Two paths flutter when they share two links without sharing everything
    in between — they meet, diverge, and meet again. The identifiability
    proof (Theorem 1) requires that no measured pair of paths flutters, so
    the measurement pipeline checks every pair and keeps only one path of
    each offending pair, exactly as the PlanetLab experiment of Section 7
    removed 52 of 48151 paths.

    Only paths that share a link can flutter, so {!check} and
    {!remove_fluttering} walk an edge -> paths index and test only the
    pairs in which two or more hops of the earlier path lie on the later
    one. Their cost follows the number of edge-sharing pairs times the
    route length, not the square of the number of paths. *)

val pair_flutters : Path.t -> Path.t -> bool
(** True when the pair violates T.2: their shared links do not form one
    contiguous block along both paths. *)

val check : Path.t array -> (int * int) list
(** All offending row pairs [(i, j)] with [i < j], in increasing [i], then
    increasing [j]. *)

val remove_fluttering : Path.t array -> Path.t array * Path.t array
(** [(kept, removed)]: visits the paths in order, and each path not yet
    removed removes every later path it flutters with, so no kept pair
    flutters. Deterministic; both arrays keep the input order. *)
