#include "mr/worker.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mr/runner.h"
#include "mr/task.h"
#include "store/run_file.h"

namespace fsjoin::mr {

namespace {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  std::string bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(file);
  return bytes;
}

Status ExecuteWorkerTask(const std::string& spec_path, std::string* base) {
  FSJOIN_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(spec_path));
  FSJOIN_ASSIGN_OR_RETURN(TaskSpec spec, TaskSpec::Decode(bytes));
  *base = spec.output_base;
  if (spec.factory.empty()) {
    return Status::InvalidArgument("worker task has no factory name");
  }
  FSJOIN_ASSIGN_OR_RETURN(
      TaskFactories factories,
      ResolveTaskFactory(spec.factory, spec.payload_bytes()));

  TaskOutput out;
  if (spec.kind == TaskKind::kMap) {
    // The map split arrives as run files; materialize it and run the
    // standard map-task body over the records. All readers open first, so
    // the input is sized once from their footers' record counts instead of
    // regrown per run file.
    std::vector<std::unique_ptr<store::RunReader>> readers;
    size_t records = 0;
    for (const std::string& path : spec.input_runs) {
      FSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<store::RunReader> reader,
                              store::RunReader::Open(path));
      records += reader->records();
      readers.push_back(std::move(reader));
    }
    Dataset input;
    input.reserve(records);
    for (const std::unique_ptr<store::RunReader>& reader : readers) {
      bool has = false;
      std::string_view key, value;
      while (true) {
        FSJOIN_RETURN_NOT_OK(reader->Next(&has, &key, &value));
        if (!has) break;
        input.push_back(KeyValue{std::string(key), std::string(value)});
      }
    }
    FSJOIN_RETURN_NOT_OK(
        ExecuteMapTask(spec, factories, input.data(), input.size(), &out));
  } else {
    FSJOIN_RETURN_NOT_OK(ExecuteReduceTaskFromRuns(spec, factories, &out));
  }
  if (factories.capture) out.side_state = factories.capture();
  return WriteTaskOutputFiles(spec.output_base, out);
}

}  // namespace

int RunWorkerTask(const std::string& spec_path) {
  std::string base;
  Status st = ExecuteWorkerTask(spec_path, &base);
  if (st.ok()) return 0;
  if (!base.empty()) WriteTaskError(base, st);
  std::fprintf(stderr, "worker task failed: %s\n", st.ToString().c_str());
  return 2;
}

int WorkerTaskMainIfRequested(int argc, char** argv) {
  SetWorkerModeAvailable(true);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-task") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--worker-task needs a spec file\n");
        return 2;
      }
      return RunWorkerTask(argv[i + 1]);
    }
  }
  return -1;
}

}  // namespace fsjoin::mr
