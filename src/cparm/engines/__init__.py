"""Decision engines consuming the selected feature subset."""
