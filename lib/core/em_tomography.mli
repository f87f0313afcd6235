(** Iterative maximum-likelihood estimation of link transmission rates
    from first moments — the style of estimator used by the unicast
    packet-train methods the paper compares against (Coates & Nowak,
    Tsang et al., references [12, 29]).

    Each path observation is binomial: [k_i] of [S] probes delivered with
    success probability [∏_{j ∈ path} t_j]. The log-likelihood is
    maximized by cyclic coordinate ascent: the update for link [j] given
    the others is a one-dimensional concave problem solved by bisection
    on the derivative.

    This estimator demonstrates two of the paper's claims. It is
    {e expensive} — every sweep costs O(iterations × n_c × n_p) versus
    LIA's closed-form solve — and the first-moment likelihood is
    {e under-determined}: on rank-deficient routing matrices many rate
    vectors attain the same optimum, so the result depends on the starting
    point and cannot match LIA's per-link accuracy. *)

type result = {
  transmission : float array;  (** estimated per-link transmission rates *)
  log_likelihood : float;
  sweeps : int;  (** coordinate-ascent sweeps performed *)
}

val log_likelihood :
  Linalg.Sparse.t -> delivered:int array -> probes:int -> Linalg.Vector.t -> float
(** Binomial log-likelihood of per-path delivery counts under the given
    link transmission rates. *)

val estimate :
  Linalg.Sparse.t -> delivered:int array -> probes:int -> result
(** [estimate r ~delivered ~probes]: coordinate ascent from the uniform
    start 0.99 until the relative likelihood gain per sweep drops below
    1e-7 or 200 sweeps are done. Raises [Invalid_argument] on dimension
    or range errors. *)
