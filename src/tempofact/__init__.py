"""Multi-timescale activity pattern extraction from bilateral transaction data.

The toolkit turns a time-stamped transaction log (or a synthetic market with
known structure) into a nonnegative banks x intervals x days tensor, fits a
nonnegative CP decomposition to it by alternating NNLS, selects the number of
components with the core consistency diagnostic, and post-processes the fitted
factors into interpretable activity reports.  Each name is imported from its
own module, such as ``tempofact.als`` or ``tempofact.corcondia``.
"""

__version__ = "0.1.0"
