"""Field bundle: named tensors plus memoized derivatives.

PINN residuals need many partial derivatives of the same network outputs with
respect to the same coordinates (eq. 3).  :class:`Fields` answers them two
ways:

* a network output registered with its forward jet (see
  :meth:`Fields.evaluate` and :class:`repro.nn.Jet`) takes ``d`` and ``d2``
  from forward tangent passes through the network, built the first time a
  direction is asked for and shared by every output column;
* any other field — a closure output, a flux term, a plain registered
  tensor, or a network without a ``jet`` method — is differentiated in
  reverse mode: one ``gradients`` pass per field yields its derivative along
  every coordinate at once, and ``d2`` differentiates that result again.

Both answers are cached, so repeated requests cost nothing.  Reverse passes
run through jet graphs too, which keeps higher derivatives of jet-derived
quantities exact.
"""

from __future__ import annotations

from ..autodiff import Tensor, concat, gradients

__all__ = ["Fields"]


class Fields:
    """Named tensor registry with cached first/second derivatives.

    Typical use::

        fields = Fields.evaluate(net, features, ("u", "v", "p"),
                                 spatial_names=("x", "y"))
        du_dx = fields.d("u", "x")
        d2u_dx2 = fields.d2("u", "x", "x")
    """

    def __init__(self):
        self._coords = {}
        self._values = {}
        self._grad_cache = {}
        #: field name -> (jet, output column) for jet-backed network outputs
        self._jets = {}
        self._input = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_features(cls, features, spatial_names=("x", "y"), param_names=()):
        """Build coordinate leaf tensors from an ``(n, d+p)`` feature matrix.

        Spatial columns become differentiable leaves; parameter columns are
        also differentiable (parameterized PINNs may need ∂/∂param terms).
        """
        fields = cls()
        names = tuple(spatial_names) + tuple(param_names)
        if features.shape[1] != len(names):
            raise ValueError(f"feature matrix has {features.shape[1]} columns "
                             f"but {len(names)} names were given")
        for i, name in enumerate(names):
            column = Tensor(features[:, i:i + 1].copy(), requires_grad=True,
                            name=name)
            fields._coords[name] = column
            fields._values[name] = column
        return fields

    @classmethod
    def evaluate(cls, net, features, output_names,
                 spatial_names=("x", "y"), param_names=()):
        """Run ``net`` on a feature batch and register its output columns.

        A network with a ``jet`` method registers each output with its jet,
        so coordinate derivatives come from forward passes; any other
        network's outputs are differentiated in reverse mode.
        """
        fields = cls.from_features(features, spatial_names=spatial_names,
                                   param_names=param_names)
        jet = getattr(net, "jet", None)
        if jet is None:
            outputs = net(fields.input_tensor())
        else:
            jet = jet(fields.input_tensor())
            outputs = jet.value
        for i, name in enumerate(output_names):
            fields.register(name, outputs[:, i:i + 1])
            if jet is not None:
                fields._jets[name] = (jet, i)
        return fields

    def input_tensor(self):
        """Concatenate coordinate columns into the network input tensor."""
        if self._input is None:
            self._input = concat(list(self._coords.values()), axis=1)
        return self._input

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def coord_names(self):
        """Registered coordinate names in column order."""
        return tuple(self._coords)

    def register(self, name, tensor):
        """Register a named field (e.g. a network output column)."""
        self._values[name] = tensor
        self._jets.pop(name, None)

    def __contains__(self, name):
        return name in self._values

    def get(self, name):
        """Look up a field tensor by name."""
        if name not in self._values:
            raise KeyError(f"unknown field {name!r}; "
                           f"have {sorted(self._values)}")
        return self._values[name]

    # ------------------------------------------------------------------
    # Derivatives
    # ------------------------------------------------------------------
    def _column(self, coord_name):
        if coord_name not in self._coords:
            raise KeyError(f"unknown coordinate {coord_name!r}; "
                           f"have {list(self._coords)}")
        return list(self._coords).index(coord_name)

    def d(self, field_name, coord_name):
        """First derivative ``∂ field / ∂ coord`` (cached)."""
        key = (field_name, coord_name)
        if key not in self._grad_cache:
            if field_name in self._jets:
                jet, col = self._jets[field_name]
                first = jet.first(self._column(coord_name))
                self._grad_cache[key] = first[:, col:col + 1]
            else:
                field = self.get(field_name)
                coords = list(self._coords.values())
                grads = gradients(field.sum(), coords)
                for cname, grad in zip(self._coords, grads):
                    self._grad_cache[(field_name, cname)] = grad
        return self._grad_cache[key]

    def d2(self, field_name, coord_a, coord_b):
        """Second derivative ``∂² field / ∂ coord_a ∂ coord_b`` (cached).

        A jet-backed field takes it from one forward second-order pass;
        any other field differentiates its cached first derivative, so the
        backward-of-backward graph is shared across calls.
        """
        if field_name in self._jets:
            a, b = sorted((self._column(coord_a), self._column(coord_b)))
            key = (field_name, a, b)
            if key not in self._grad_cache:
                jet, col = self._jets[field_name]
                self._grad_cache[key] = jet.second(a, b)[:, col:col + 1]
            return self._grad_cache[key]
        first = self.d(field_name, coord_a)
        derived_name = f"d({field_name})/d({coord_a})"
        if derived_name not in self._values:
            self._values[derived_name] = first
        return self.d(derived_name, coord_b)

    def laplacian(self, field_name):
        """Sum of unmixed second derivatives over all spatial coordinates
        registered as ``x``/``y``/``z``."""
        spatial = [n for n in self._coords if n in ("x", "y", "z")]
        total = None
        for name in spatial:
            term = self.d2(field_name, name, name)
            total = term if total is None else total + term
        return total
