"""The open-loop engine's operation mixes: plain data the CLI's parser
lists without importing the engine, which re-exports :data:`MIXES`."""

#: mix name -> ((weight, service, op), ...).  Weights need not sum to 1.
MIXES = {
    "queue": ((0.5, "queue", "put"), (0.25, "queue", "peek"),
              (0.25, "queue", "get")),
    "blob": ((0.65, "blob", "download"), (0.35, "blob", "upload")),
    "table": ((0.3, "table", "insert"), (0.3, "table", "get"),
              (0.2, "table", "upsert"), (0.2, "table", "query")),
    "mixed": ((0.25, "queue", "put"), (0.15, "queue", "get"),
              (0.2, "blob", "download"), (0.1, "blob", "upload"),
              (0.15, "table", "get"), (0.15, "table", "upsert")),
    # The DN-failover campaign's: writes dominate, and no queue get, which
    # would delete a message the loss check could not attribute to a put.
    "failover": ((0.30, "blob", "upload"), (0.15, "blob", "download"),
                 (0.25, "queue", "put"), (0.20, "table", "insert"),
                 (0.10, "table", "get")),
}
